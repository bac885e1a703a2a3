#ifndef STETHO_DOT_PARSER_H_
#define STETHO_DOT_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "dot/graph.h"

namespace stetho::dot {

/// Parses a dot-language document into a Graph. Supported subset (what
/// GraphViz-generated MAL plan files use):
///
///   (di)graph [name] { stmt* }
///   stmt := node_id [attr_list] ;
///         | node_id (-> | --) node_id [attr_list] ;
///         | ID = ID ;                 (graph attribute, stored on the graph)
///         | node [attr_list] ;        (default node attributes, ignored)
///   attr_list := '[' ID '=' (ID | "string") (',' ...)* ']'
///
/// Identifiers are alphanumeric/underscore/dot/minus sequences, numerals,
/// or double-quoted strings with backslash escapes. A bare id ends where
/// "->" or "--" begins (after its first character), so `a->b` and `a--b`
/// are edges. Comments: //, /* */, #. The text is scanned in place; node and
/// edge attributes are written straight into the graph.
Result<Graph> ParseDot(std::string_view text);

}  // namespace stetho::dot

#endif  // STETHO_DOT_PARSER_H_
