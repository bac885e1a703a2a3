#ifndef STETHO_TESTS_CHECK_CEILINGS_H_
#define STETHO_TESTS_CHECK_CEILINGS_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "analysis/facts.h"
#include "analysis/runner.h"

namespace stetho::tests {

/// Runs every check of the default suite whose inputs `context` holds, once
/// in the CLI's context and once in the optimizer pipeline's, and fails the
/// test for each finding above the emitting check's declared ceiling (the
/// pipeline skips the checks whose ceiling is below an error, so such a
/// finding would be lost there). `input` names the artifact in a failure.
inline void ExpectFindingsWithinCeilings(analysis::CheckContext context,
                                         const std::string& input) {
  for (bool in_pipeline : {false, true}) {
    context.in_pipeline = in_pipeline;
    const analysis::Facts facts(context.program, context.trace);
    context.facts = &facts;
    for (const std::unique_ptr<analysis::Check>& check :
         analysis::Runner::Default().checks()) {
      const unsigned needs = check->needs();
      auto missing = [needs](unsigned bit, const void* field) {
        return (needs & bit) != 0 && field == nullptr;
      };
      if (missing(analysis::kNeedsProgram, context.program) ||
          missing(analysis::kNeedsGraph, context.graph) ||
          missing(analysis::kNeedsTrace, context.trace) ||
          missing(analysis::kNeedsRegistry, context.registry) ||
          missing(analysis::kNeedsSpans, context.spans) ||
          missing(analysis::kNeedsProfile, context.profile)) {
        continue;
      }
      std::vector<analysis::Diagnostic> found;
      check->Run(context, &found);
      for (const analysis::Diagnostic& d : found) {
        EXPECT_LE(static_cast<int>(d.severity),
                  static_cast<int>(check->ceiling()))
            << input << (in_pipeline ? " in the pipeline: " : " from the CLI: ")
            << d.ToString();
      }
    }
  }
}

}  // namespace stetho::tests

#endif  // STETHO_TESTS_CHECK_CEILINGS_H_
