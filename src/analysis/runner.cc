#include "analysis/runner.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "analysis/checks.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace stetho::analysis {
namespace {

bool NeedsSatisfied(unsigned needs, const CheckContext& ctx) {
  if ((needs & kNeedsProgram) != 0 && ctx.program == nullptr) return false;
  if ((needs & kNeedsGraph) != 0 && ctx.graph == nullptr) return false;
  if ((needs & kNeedsTrace) != 0 && ctx.trace == nullptr) return false;
  if ((needs & kNeedsRegistry) != 0 && ctx.registry == nullptr) return false;
  if ((needs & kNeedsSpans) != 0 && ctx.spans == nullptr) return false;
  if ((needs & kNeedsProfile) != 0 && ctx.profile == nullptr) return false;
  return true;
}

}  // namespace

void Runner::Add(std::unique_ptr<Check> check) {
  checks_.push_back(std::move(check));
}

std::vector<Diagnostic> Runner::Run(const CheckContext& context) const {
  const Facts facts(context.program, context.trace);
  return Run(context, facts);
}

std::vector<Diagnostic> Runner::Run(const CheckContext& context,
                                    const Facts& facts, Severity floor) const {
  CheckContext ctx = context;
  ctx.facts = &facts;
  std::vector<Diagnostic> diagnostics;
  for (const std::unique_ptr<Check>& check : checks_) {
    const Severity ceiling = check->ceiling();
    if (ceiling < floor || !NeedsSatisfied(check->needs(), ctx)) continue;
    const size_t first = diagnostics.size();
    check->Run(ctx, &diagnostics);
    // A finding above the declared ceiling would be lost to a lint that
    // skipped the check for it.
    for (size_t i = first; i < diagnostics.size(); ++i) {
      STETHO_CHECK(diagnostics[i].severity <= ceiling);
    }
  }
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return std::make_tuple(-static_cast<int>(a.severity),
                                            a.pc, a.check_id, a.var) <
                            std::make_tuple(-static_cast<int>(b.severity),
                                            b.pc, b.check_id, b.var);
                   });
  return diagnostics;
}

Runner Runner::MakeDefault() {
  Runner runner;
  for (std::unique_ptr<Check>& check : AllChecks()) {
    runner.Add(std::move(check));
  }
  return runner;
}

const Runner& Runner::Default() {
  static const Runner& runner = *new Runner(MakeDefault());
  return runner;
}

std::string FormatDiagnostics(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.ToString();
    out += '\n';
  }
  return out;
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    if (i > 0) out += ",";
    out += "\n  {\"severity\": ";
    AppendJsonString(SeverityName(d.severity), &out);
    out += ", \"check\": ";
    AppendJsonString(d.check_id, &out);
    out += StrFormat(", \"pc\": %d, \"var\": %d, \"message\": ", d.pc, d.var);
    AppendJsonString(d.message, &out);
    out += ", \"fix_hint\": ";
    AppendJsonString(d.fix_hint, &out);
    out += "}";
  }
  out += diagnostics.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string DiagnosticsToSarif(const std::vector<Diagnostic>& diagnostics,
                               const std::string& artifact_uri) {
  // Rule catalog: unique check ids in first-appearance order, described
  // from the default suite when the id is a built-in check.
  std::vector<std::string> rule_ids;
  for (const Diagnostic& d : diagnostics) {
    if (std::find(rule_ids.begin(), rule_ids.end(), d.check_id) ==
        rule_ids.end()) {
      rule_ids.push_back(d.check_id);
    }
  }
  auto rule_description = [](const std::string& id) -> std::string {
    for (const std::unique_ptr<Check>& check : Runner::Default().checks()) {
      if (id == check->id()) return check->description();
    }
    return "";
  };
  auto rule_index = [&rule_ids](const std::string& id) -> size_t {
    return static_cast<size_t>(
        std::find(rule_ids.begin(), rule_ids.end(), id) - rule_ids.begin());
  };

  std::string out =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"mal_lint\",\n"
      "          \"rules\": [";
  for (size_t i = 0; i < rule_ids.size(); ++i) {
    out += i > 0 ? "," : "";
    out += "\n            {\"id\": ";
    AppendJsonString(rule_ids[i], &out);
    std::string description = rule_description(rule_ids[i]);
    if (!description.empty()) {
      out += ", \"shortDescription\": {\"text\": ";
      AppendJsonString(description, &out);
      out += "}";
    }
    out += "}";
  }
  out += rule_ids.empty() ? "]\n" : "\n          ]\n";
  out +=
      "        }\n"
      "      },\n"
      "      \"results\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    // SARIF levels happen to share our severity names (error/warning/note).
    out += i > 0 ? "," : "";
    out += "\n        {\"ruleId\": ";
    AppendJsonString(d.check_id, &out);
    out += StrFormat(", \"ruleIndex\": %zu, \"level\": ",
                     rule_index(d.check_id));
    AppendJsonString(SeverityName(d.severity), &out);
    out += ", \"message\": {\"text\": ";
    std::string text = d.message;
    if (!d.fix_hint.empty()) text += " (hint: " + d.fix_hint + ")";
    AppendJsonString(text, &out);
    out += "}";
    if (!artifact_uri.empty() || d.pc >= 0) {
      out += ", \"locations\": [{\"physicalLocation\": {";
      bool need_comma = false;
      if (!artifact_uri.empty()) {
        out += "\"artifactLocation\": {\"uri\": ";
        AppendJsonString(artifact_uri, &out);
        out += "}";
        need_comma = true;
      }
      if (d.pc >= 0) {
        if (need_comma) out += ", ";
        // SARIF regions are 1-based (§3.30.5): pc N renders on line N + 1
        // of the plan listing, and statements start in column 1.
        out += StrFormat(
            "\"region\": {\"startLine\": %d, \"startColumn\": 1}", d.pc + 1);
      }
      out += "}}]";
    }
    out += StrFormat(", \"properties\": {\"pc\": %d, \"var\": %d}}", d.pc,
                     d.var);
  }
  out += diagnostics.empty() ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

std::string DiagnosticFingerprint(const Diagnostic& diagnostic) {
  std::string normalized;
  normalized.reserve(diagnostic.message.size());
  bool in_digits = false;
  for (char c : diagnostic.message) {
    if (c >= '0' && c <= '9') {
      if (!in_digits) normalized.push_back('#');
      in_digits = true;
    } else {
      normalized.push_back(c);
      in_digits = false;
    }
  }
  return StrFormat("%s:%d:%s", diagnostic.check_id.c_str(), diagnostic.pc,
                   normalized.c_str());
}

std::string FormatBaseline(const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::string> fingerprints;
  fingerprints.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) {
    fingerprints.push_back(DiagnosticFingerprint(d));
  }
  std::sort(fingerprints.begin(), fingerprints.end());
  fingerprints.erase(std::unique(fingerprints.begin(), fingerprints.end()),
                     fingerprints.end());
  std::string out =
      "# mal_lint baseline: one fingerprint (check:pc:normalized-message) "
      "per line.\n";
  for (const std::string& fp : fingerprints) {
    out += fp;
    out += '\n';
  }
  return out;
}

std::vector<std::string> ParseBaseline(const std::string& text) {
  std::vector<std::string> fingerprints;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    fingerprints.push_back(std::move(line));
    if (eol == text.size()) break;
  }
  return fingerprints;
}

std::vector<Diagnostic> ApplyBaseline(
    std::vector<Diagnostic> diagnostics,
    const std::vector<std::string>& baseline) {
  if (baseline.empty()) return diagnostics;
  auto suppressed = [&baseline](const Diagnostic& d) {
    if (std::find(baseline.begin(), baseline.end(),
                  DiagnosticFingerprint(d)) != baseline.end()) {
      return true;
    }
    // Legacy alias: the trace-side half of bat-lifetime moved into
    // trace-dependency-violation (single source of truth for the
    // happens-before contract). Baselines recorded before the move list
    // the old fingerprint; map today's finding back onto it so those
    // files keep suppressing the same schedule anomaly.
    if (d.check_id == "trace-dependency-violation") {
      Diagnostic legacy = d;
      legacy.check_id = "bat-lifetime";
      legacy.message = StrFormat(
          "started before its producer pc=%d finished — the register it "
          "reads may already be released",
          /*producer=*/0);
      if (std::find(baseline.begin(), baseline.end(),
                    DiagnosticFingerprint(legacy)) != baseline.end()) {
        return true;
      }
    }
    return false;
  };
  diagnostics.erase(
      std::remove_if(diagnostics.begin(), diagnostics.end(), suppressed),
      diagnostics.end());
  return diagnostics;
}

bool AnyAtOrAbove(const std::vector<Diagnostic>& diagnostics,
                  Severity threshold) {
  for (const Diagnostic& d : diagnostics) {
    if (d.severity >= threshold) return true;
  }
  return false;
}

Status DiagnosticsToStatus(const std::vector<Diagnostic>& diagnostics,
                           const std::string& context) {
  size_t errors = CountSeverity(diagnostics, Severity::kError);
  if (errors == 0) return Status::OK();
  // Run() sorts errors first, so front() is the lead finding.
  std::string msg =
      StrFormat("%s: %s", context.c_str(), diagnostics.front().ToString().c_str());
  if (errors > 1) {
    msg += StrFormat(" (+%zu more errors)", errors - 1);
  }
  return Status::Internal(std::move(msg));
}

}  // namespace stetho::analysis
