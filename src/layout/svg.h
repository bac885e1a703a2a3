#ifndef STETHO_LAYOUT_SVG_H_
#define STETHO_LAYOUT_SVG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "dot/graph.h"
#include "layout/sugiyama.h"

namespace stetho::layout {

/// Renders a laid-out graph as a standalone SVG document. Nodes become
/// <g class="node" id="..."><rect/><text/></g> groups; edges become <line
/// class="edge" data-from="..." data-to="..."/> elements, so the document is
/// self-describing and can be parsed back into a graph (the paper's
/// dot -> svg -> in-memory-graph pipeline). A node's "fillcolor" attribute
/// (set by the Stethoscope coloring algorithms) fills its rect.
std::string LayoutToSvg(const dot::Graph& graph, const GraphLayout& layout);

/// One node recovered from an SVG document.
struct SvgNode {
  std::string id;
  std::string label;
  std::string fill;
  double x = 0;       ///< rect top-left
  double y = 0;
  double width = 0;
  double height = 0;
};

struct SvgEdge {
  std::string from;
  std::string to;
};

/// A parsed SVG plan rendering.
struct SvgDocument {
  double width = 0;
  double height = 0;
  std::vector<SvgNode> nodes;
  std::vector<SvgEdge> edges;
};

/// Parses an SVG produced by LayoutToSvg back into geometry + topology.
Result<SvgDocument> ParseSvg(const std::string& text);

/// Rebuilds the in-memory Graph (ids, labels, edges) from a parsed SVG.
dot::Graph SvgToGraph(const SvgDocument& doc);

}  // namespace stetho::layout

#endif  // STETHO_LAYOUT_SVG_H_
