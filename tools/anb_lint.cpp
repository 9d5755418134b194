// anb_lint — repo-specific invariant linter, driver.
//
// Generic tools (clang-tidy, compiler warnings) cannot see this repo's
// contracts: determinism of everything downstream of anb::Rng, the
// single exception type anb::Error, the thread-safety-annotation lock
// discipline, layering of the src/ DAG, and header hygiene. The passes
// that enforce them live in tools/lint/ (see tools/lint/include/
// anb_lint/pass.hpp); this binary just loads the tree and runs them.
// It builds as part of the normal build and runs as a ctest
// (`ctest -R anb_lint`), so violations fail CI the same way a broken
// unit test does.
//
// Usage: anb_lint [--json] [--pass <name>] [--list-passes] <repo-root>
//
//   --json         print findings as a JSON array on stdout
//   --pass <name>  run one pass instead of all of them
//   --list-passes  print registered pass names and summaries, then exit
//
// Suppressions: a comment containing `ANB_LINT_ALLOW(<pass>)` on the
// finding's line suppresses that pass for that line; a comment
// containing `ANB_LINT_ALLOW_FILE(<pass>)` anywhere in a file
// suppresses the pass for the whole file. Suppressions are meant to be
// rare and greppable.
//
// Exit codes: 0 clean, 1 findings, 2 usage error.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>

#include "anb_lint/pass.hpp"
#include "anb_lint/tree.hpp"

namespace fs = std::filesystem;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: anb_lint [--json] [--pass <name>] [--list-passes] "
               "<repo-root>\n");
  return 2;
}

void print_findings(const std::vector<anb::lint::Finding>& findings,
                    std::size_t files_scanned, std::size_t suppressed) {
  for (const anb::lint::Finding& finding : findings) {
    if (finding.line > 0) {
      std::fprintf(stderr, "%s:%zu: [%s] %s\n", finding.path.c_str(),
                   finding.line, finding.pass.c_str(),
                   finding.message.c_str());
    } else {
      std::fprintf(stderr, "%s: [%s] %s\n", finding.path.c_str(),
                   finding.pass.c_str(), finding.message.c_str());
    }
  }
  std::fprintf(stderr,
               "anb_lint: %zu file(s) scanned, %zu finding(s), %zu "
               "suppressed\n",
               files_scanned, findings.size(), suppressed);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string pass_name;
  std::string root_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-passes") {
      for (const auto& pass : anb::lint::passes()) {
        std::fprintf(stdout, "%-26s %s\n", std::string(pass->name()).c_str(),
                     std::string(pass->summary()).c_str());
      }
      return 0;
    } else if (arg == "--pass") {
      if (i + 1 >= argc) return usage();
      pass_name = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (root_arg.empty()) {
      root_arg = arg;
    } else {
      return usage();
    }
  }
  if (root_arg.empty()) return usage();

  const fs::path root(root_arg);
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "anb_lint: %s does not look like the repo root\n",
                 root_arg.c_str());
    return 2;
  }

  try {
    const anb::lint::Tree tree = anb::lint::Tree::from_disk(root);
    const anb::lint::RunResult result =
        pass_name.empty() ? anb::lint::run_all(tree)
                          : anb::lint::run_pass(tree, pass_name);
    if (json) {
      const std::string out = anb::lint::findings_json(result.findings);
      std::fwrite(out.data(), 1, out.size(), stdout);
    }
    print_findings(result.findings, result.files_scanned, result.suppressed);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
}
