#ifndef STETHO_DOT_WRITER_H_
#define STETHO_DOT_WRITER_H_

#include <string>

#include "dot/graph.h"
#include "engine/prepared_plan.h"
#include "mal/program.h"

namespace stetho::dot {

/// Options for rendering a MAL plan to DOT.
struct DotWriterOptions {
  /// Graph name emitted in the header.
  std::string graph_name = "user.main";
  /// Node shape attribute.
  std::string node_shape = "box";
  /// Truncate statement labels beyond this many characters (0 = no limit).
  size_t max_label_chars = 0;
};

/// Renders the dataflow DAG of a prepared MAL plan in the dot language.
/// Node pc N is named "nN" and carries the rendered statement as its label —
/// exactly the mapping the Stethoscope uses to join traces with the plan
/// graph (paper §3.3). The MonetDB server emits this file before execution
/// begins. Writes the prepared labels and edges into one reserved string.
std::string ProgramToDot(const engine::PreparedPlan& plan,
                         const DotWriterOptions& options = {});
/// Prepares `program`, then renders it as above.
std::string ProgramToDot(const mal::Program& program,
                         const DotWriterOptions& options = {});

/// Renders an arbitrary Graph back to dot (round-trip support).
std::string GraphToDot(const Graph& graph);

/// Builds the in-memory Graph directly from a program (the same structure
/// ParseDot(ProgramToDot(p)) yields, without the text round-trip).
Graph ProgramToGraph(const mal::Program& program);

}  // namespace stetho::dot

#endif  // STETHO_DOT_WRITER_H_
