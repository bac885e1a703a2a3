#include "layout/svg.h"

#include <cctype>
#include <map>

#include "common/string_util.h"
#include "obs/span.h"

namespace stetho::layout {

std::string LayoutToSvg(const dot::Graph& graph, const GraphLayout& layout,
                        const SvgOptions& options) {
  obs::Span span(obs::Tracer::Default(), "svg", "phase");
  std::string out = StrFormat(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
      "height=\"%.0f\" viewBox=\"0 0 %.0f %.0f\">\n",
      layout.width, layout.height, layout.width, layout.height);

  // Edges first so nodes draw on top.
  for (const EdgeLayout& el : layout.edges) {
    if (el.points.size() < 2 || el.edge < 0) continue;
    const dot::GraphEdge& edge = graph.edges()[static_cast<size_t>(el.edge)];
    const Point& a = el.points.front();
    const Point& b = el.points.back();
    out += StrFormat(
        "  <line class=\"edge\" data-from=\"%s\" data-to=\"%s\" "
        "x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"%s\"/>\n",
        EscapeXml(edge.from).c_str(), EscapeXml(edge.to).c_str(), a.x, a.y,
        b.x, b.y, options.stroke.c_str());
  }

  for (const NodeLayout& nl : layout.nodes) {
    if (nl.node < 0) continue;
    const dot::GraphNode& node = graph.node(static_cast<size_t>(nl.node));
    std::string fill = options.default_fill;
    auto it = node.attrs.find(options.fill_attr);
    if (it != node.attrs.end() && !it->second.empty()) fill = it->second;
    out += StrFormat("  <g class=\"node\" id=\"%s\">\n",
                     EscapeXml(node.id).c_str());
    out += StrFormat(
        "    <rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" "
        "fill=\"%s\" stroke=\"%s\"/>\n",
        nl.x - nl.width / 2.0, nl.y - nl.height / 2.0, nl.width, nl.height,
        EscapeXml(fill).c_str(), options.stroke.c_str());
    out += StrFormat(
        "    <text x=\"%.1f\" y=\"%.1f\" text-anchor=\"middle\" "
        "font-family=\"%s\" font-size=\"%.1f\">%s</text>\n",
        nl.x, nl.y + options.font_size / 3.0, options.font_family.c_str(),
        options.font_size, EscapeXml(node.label()).c_str());
    out += "  </g>\n";
  }
  out += "</svg>\n";
  return out;
}

namespace {

/// One parsed XML tag: name + attributes; `closing` for </name>.
struct XmlTag {
  std::string name;
  std::map<std::string, std::string> attrs;
  bool closing = false;
  bool self_closing = false;
};

std::string UnescapeXml(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    auto try_entity = [&](std::string_view entity, char c) {
      if (s.substr(i, entity.size()) == entity) {
        out.push_back(c);
        i += entity.size() - 1;
        return true;
      }
      return false;
    };
    if (try_entity("&amp;", '&') || try_entity("&lt;", '<') ||
        try_entity("&gt;", '>') || try_entity("&quot;", '"') ||
        try_entity("&apos;", '\'')) {
      continue;
    }
    out.push_back(s[i]);
  }
  return out;
}

/// Minimal forward-only XML reader sufficient for our own SVG output.
class XmlReader {
 public:
  explicit XmlReader(const std::string& text) : text_(text) {}

  /// Advances to the next tag. Returns false at end of input. Text content
  /// between the previous position and the tag is stored in `pending_text`.
  bool NextTag(XmlTag* tag, std::string* pending_text) {
    pending_text->clear();
    size_t lt = text_.find('<', pos_);
    if (lt == std::string::npos) return false;
    *pending_text = UnescapeXml(
        std::string_view(text_).substr(pos_, lt - pos_));
    size_t gt = text_.find('>', lt);
    if (gt == std::string::npos) return false;
    std::string_view body = std::string_view(text_).substr(lt + 1, gt - lt - 1);
    pos_ = gt + 1;

    tag->attrs.clear();
    tag->closing = false;
    tag->self_closing = false;
    if (!body.empty() && body.front() == '/') {
      tag->closing = true;
      body.remove_prefix(1);
    }
    if (!body.empty() && body.back() == '/') {
      tag->self_closing = true;
      body.remove_suffix(1);
    }
    if (!body.empty() && (body.front() == '?' || body.front() == '!')) {
      tag->name = "";
      return true;  // declaration/comment — caller skips
    }
    size_t i = 0;
    while (i < body.size() && !std::isspace(static_cast<unsigned char>(body[i]))) {
      ++i;
    }
    tag->name = std::string(body.substr(0, i));
    // Attributes: key="value"
    while (i < body.size()) {
      while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) {
        ++i;
      }
      size_t eq = body.find('=', i);
      if (eq == std::string_view::npos) break;
      std::string key = Trim(body.substr(i, eq - i));
      size_t q1 = body.find('"', eq);
      if (q1 == std::string_view::npos) break;
      size_t q2 = body.find('"', q1 + 1);
      if (q2 == std::string_view::npos) break;
      tag->attrs[key] = UnescapeXml(body.substr(q1 + 1, q2 - q1 - 1));
      i = q2 + 1;
    }
    return true;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

double AttrDouble(const XmlTag& tag, const char* name) {
  auto it = tag.attrs.find(name);
  if (it == tag.attrs.end()) return 0;
  auto v = ParseDouble(it->second);
  return v.ok() ? v.value() : 0;
}

std::string AttrString(const XmlTag& tag, const char* name) {
  auto it = tag.attrs.find(name);
  return it != tag.attrs.end() ? it->second : std::string();
}

}  // namespace

Result<SvgDocument> ParseSvg(const std::string& text) {
  SvgDocument doc;
  XmlReader reader(text);
  XmlTag tag;
  std::string pending;
  bool saw_svg = false;
  SvgNode current;
  bool in_node = false;
  bool in_text = false;

  while (reader.NextTag(&tag, &pending)) {
    if (in_text && !pending.empty()) {
      current.label += pending;
    }
    if (tag.name.empty()) continue;
    if (tag.name == "svg" && !tag.closing) {
      saw_svg = true;
      doc.width = AttrDouble(tag, "width");
      doc.height = AttrDouble(tag, "height");
      continue;
    }
    if (tag.name == "line" && AttrString(tag, "class") == "edge") {
      SvgEdge edge;
      edge.from = AttrString(tag, "data-from");
      edge.to = AttrString(tag, "data-to");
      if (edge.from.empty() || edge.to.empty()) {
        return Status::ParseError("edge element missing data-from/data-to");
      }
      doc.edges.push_back(std::move(edge));
      continue;
    }
    if (tag.name == "g" && !tag.closing && AttrString(tag, "class") == "node") {
      current = SvgNode();
      current.id = AttrString(tag, "id");
      in_node = true;
      continue;
    }
    if (tag.name == "rect" && in_node) {
      current.x = AttrDouble(tag, "x");
      current.y = AttrDouble(tag, "y");
      current.width = AttrDouble(tag, "width");
      current.height = AttrDouble(tag, "height");
      current.fill = AttrString(tag, "fill");
      continue;
    }
    if (tag.name == "text" && in_node) {
      in_text = !tag.closing && !tag.self_closing;
      continue;
    }
    if (tag.name == "g" && tag.closing && in_node) {
      if (current.id.empty()) {
        return Status::ParseError("node group missing id");
      }
      doc.nodes.push_back(std::move(current));
      in_node = false;
      in_text = false;
      continue;
    }
  }
  if (!saw_svg) return Status::ParseError("input is not an SVG document");
  return doc;
}

dot::Graph SvgToGraph(const SvgDocument& doc) {
  dot::Graph graph("svg");
  for (const SvgNode& node : doc.nodes) {
    dot::GraphNode& gn = graph.AddNode(node.id);
    gn.given_label = node.label;
    if (!node.fill.empty()) gn.attrs["fillcolor"] = node.fill;
  }
  for (const SvgEdge& edge : doc.edges) {
    graph.AddEdge(edge.from, edge.to);
  }
  return graph;
}

}  // namespace stetho::layout
