#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "anb_lint/tree.hpp"

// Pass framework for anb_lint.
//
// A Pass inspects the Tree and reports Findings through Diagnostics,
// which applies suppressions centrally:
//
//   // ANB_LINT_ALLOW(<pass>)       on the finding's line
//   // ANB_LINT_ALLOW_FILE(<pass>)  anywhere in the file
//
// Suppressions are per-pass and greppable; a pass never needs its own
// waiver logic. Findings are plain data so the driver can render them
// as compiler-style text or machine-readable JSON.

namespace anb::lint {

struct Finding {
  std::string path;
  std::size_t line;  // 1-based; 0 = whole file
  std::string pass;
  std::string message;
};

class Diagnostics {
 public:
  explicit Diagnostics(std::string pass_name)
      : pass_(std::move(pass_name)) {}

  /// Record a finding unless an ANB_LINT_ALLOW comment suppresses it.
  void report(const SourceFile& file, std::size_t line, std::string message);

  const std::string& pass_name() const { return pass_; }
  std::vector<Finding> take_findings() { return std::move(findings_); }
  std::size_t suppressed() const { return suppressed_; }

 private:
  std::string pass_;
  std::vector<Finding> findings_;
  std::size_t suppressed_ = 0;
};

class Pass {
 public:
  virtual ~Pass() = default;
  virtual std::string_view name() const = 0;
  virtual std::string_view summary() const = 0;
  virtual void run(const Tree& tree, Diagnostics& diag) const = 0;
};

/// Convenience base for passes that inspect one file at a time.
class FilePass : public Pass {
 public:
  void run(const Tree& tree, Diagnostics& diag) const final {
    for (const SourceFile& file : tree.files()) check(file, diag);
  }

 private:
  virtual void check(const SourceFile& file, Diagnostics& diag) const = 0;
};

/// The registry: every pass, in stable execution/report order.
const std::vector<std::unique_ptr<Pass>>& passes();

struct RunResult {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;
  std::size_t files_scanned = 0;
};

/// Run one pass by name; throws std::runtime_error on unknown names.
RunResult run_pass(const Tree& tree, std::string_view pass_name);

/// Run every registered pass.
RunResult run_all(const Tree& tree);

/// Machine-readable findings: a JSON array of
/// {"path": ..., "line": N, "pass": ..., "message": ...}.
std::string findings_json(const std::vector<Finding>& findings);

}  // namespace anb::lint
