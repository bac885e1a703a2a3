#include "dot/writer.h"

#include <charconv>
#include <string_view>

#include "common/string_util.h"

namespace stetho::dot {
namespace {

std::string NodeName(int pc) { return StrFormat("n%d", pc); }

/// Appends "n<pc>".
void AppendNodeName(int pc, std::string* out) {
  char digits[16];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), pc);
  out->push_back('n');
  out->append(digits, end);
}

}  // namespace

std::string ProgramToDot(const engine::PreparedPlan& plan,
                         const DotWriterOptions& options) {
  // One reserved buffer: the labels and edges, plus their fixed text and
  // an eighth for escapes.
  size_t bytes = 64 + options.graph_name.size() + options.node_shape.size();
  for (size_t pc = 0; pc < plan.size(); ++pc) {
    const int ipc = static_cast<int>(pc);
    bytes += plan.text(ipc).size() + 24 +
             24 * plan.deps().producers(ipc).size();
  }
  std::string out;
  out.reserve(bytes + bytes / 8);

  out += "digraph \"";
  AppendEscapedQuoted(options.graph_name, &out);
  out += "\" {\n  node [shape=";
  out += options.node_shape;
  out += "];\n";
  const size_t limit = options.max_label_chars;
  for (size_t pc = 0; pc < plan.size(); ++pc) {
    const int ipc = static_cast<int>(pc);
    const std::string_view label = plan.text(ipc);
    out += "  ";
    AppendNodeName(ipc, &out);
    out += " [label=\"";
    if (limit == 0 || label.size() <= limit) {
      AppendEscapedQuoted(label, &out);
    } else {
      AppendEscapedQuoted(label.substr(0, limit), &out);
      out += "...";
    }
    out += "\"];\n";
  }
  for (size_t pc = 0; pc < plan.size(); ++pc) {
    const int ipc = static_cast<int>(pc);
    for (int producer : plan.deps().producers(ipc)) {
      // Dataflow direction: producer -> consumer.
      out += "  ";
      AppendNodeName(producer, &out);
      out += " -> ";
      AppendNodeName(ipc, &out);
      out += ";\n";
    }
  }
  out += "}\n";
  return out;
}

std::string ProgramToDot(const mal::Program& program,
                         const DotWriterOptions& options) {
  return ProgramToDot(engine::PreparedPlan(program), options);
}

std::string GraphToDot(const Graph& graph) {
  std::string out;
  out += graph.directed() ? "digraph" : "graph";
  out += " \"" + EscapeQuoted(graph.name()) + "\" {\n";
  for (const GraphNode& node : graph.nodes()) {
    out += "  " + node.id;
    bool first = true;
    node.ForEachAttr([&](const std::string& k, const std::string& v) {
      out += first ? " [" : ", ";
      first = false;
      out += k + "=\"" + EscapeQuoted(v) + "\"";
    });
    if (!first) out += "]";
    out += ";\n";
  }
  const char* arrow = graph.directed() ? " -> " : " -- ";
  for (const GraphEdge& edge : graph.edges()) {
    out += "  " + edge.from + arrow + edge.to;
    if (!edge.attrs.empty()) {
      out += " [";
      bool first = true;
      for (const auto& [k, v] : edge.attrs) {
        if (!first) out += ", ";
        first = false;
        out += k + "=\"" + EscapeQuoted(v) + "\"";
      }
      out += "]";
    }
    out += ";\n";
  }
  out += "}\n";
  return out;
}

Graph ProgramToGraph(const mal::Program& program) {
  Graph graph(program.function_name());
  for (const mal::Instruction& ins : program.instructions()) {
    GraphNode& node = graph.AddNode(NodeName(ins.pc));
    node.given_label = program.InstructionToString(ins);
  }
  const mal::Dependencies deps = program.BuildDependencies();
  for (size_t pc = 0; pc < deps.size(); ++pc) {
    for (int producer : deps.producers(static_cast<int>(pc))) {
      graph.AddEdge(NodeName(producer), NodeName(static_cast<int>(pc)));
    }
  }
  return graph;
}

}  // namespace stetho::dot
