// Layering: src/ is a DAG of libraries and the include graph must
// respect it. The allowed-dependency table mirrors the CMake link
// graph (src/*/CMakeLists.txt), with obs at the bottom — it is the
// one subsystem everything may observe through, and it depends on
// nothing but the header-only util leaves. A cycle check over the
// in-tree header graph backstops the table: even an edge the table
// permits must never close a loop.

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "anb_lint/passes.hpp"

namespace anb::lint {

namespace {

/// Allowed include targets by layer, matching the CMake link graph.
const std::map<std::string, std::set<std::string>, std::less<>>& allowed() {
  static const std::map<std::string, std::set<std::string>, std::less<>> kMap =
      {
          {"obs", {}},
          {"util", {"obs"}},
          {"searchspace", {"util", "obs"}},
          {"ir", {"searchspace", "util", "obs"}},
          {"hwsim", {"ir", "searchspace", "util", "obs"}},
          {"trainsim", {"util", "obs"}},
          {"surrogate", {"util", "obs"}},
          {"hpo", {"surrogate", "util", "obs"}},
          {"nas", {"searchspace", "util", "obs"}},
          {"fbnet", {"ir", "searchspace", "util", "obs"}},
          // Space-registry edges: fbnet (the FBNet space implementation)
          // is reachable only from the pipeline layers that resolve spaces
          // (anb, serve) — never from util/obs/searchspace, which must stay
          // space-implementation-agnostic.
          {"anb",
           {"fbnet", "nas", "hpo", "surrogate", "hwsim", "trainsim", "ir",
            "searchspace", "util", "obs"}},
          {"serve",
           {"anb", "fbnet", "nas", "hpo", "surrogate", "hwsim", "trainsim",
            "ir", "searchspace", "util", "obs"}},
      };
  return kMap;
}

/// Header-only util leaves usable from any layer (including obs, which
/// sits below util in the link graph): vocabulary with no .cpp behind it.
bool is_header_only_leaf(std::string_view target) {
  return target == "anb/util/error.hpp" || target == "anb/util/mutex.hpp" ||
         target == "anb/util/thread_annotations.hpp";
}

/// Layer of an in-tree include target: "anb/<layer>/...".
std::string target_layer(std::string_view target) {
  if (target.rfind("anb/", 0) != 0) return std::string();
  const std::size_t slash = target.find('/', 4);
  if (slash == std::string_view::npos) return std::string();
  return std::string(target.substr(4, slash - 4));
}

class LayeringPass final : public Pass {
 public:
  std::string_view name() const override { return "layering"; }
  std::string_view summary() const override {
    return "src/ include graph must match the layer DAG, with no cycles";
  }

  void run(const Tree& tree, Diagnostics& diag) const override {
    check_layer_table(tree, diag);
    check_header_cycles(tree, diag);
  }

 private:
  static void check_layer_table(const Tree& tree, Diagnostics& diag) {
    for (const SourceFile& f : tree.files()) {
      if (!f.in_src || f.layer.empty()) continue;
      const auto it = allowed().find(f.layer);
      if (it == allowed().end()) {
        diag.report(f, 0,
                    "layer '" + f.layer +
                        "' is not in the layering table; add it to "
                        "tools/lint/passes/layering_pass.cpp");
        continue;
      }
      for (const Include& inc : f.includes) {
        if (inc.angled) continue;
        if (is_header_only_leaf(inc.target)) continue;
        const std::string dep = target_layer(inc.target);
        if (dep.empty() || dep == f.layer) continue;
        if (it->second.count(dep) > 0) continue;
        diag.report(f, inc.line,
                    "layer '" + f.layer + "' must not include '" +
                        inc.target + "' (layer '" + dep +
                        "'); the DAG allows only lower layers");
      }
    }
  }

  /// DFS over in-tree header->header edges; any back edge is a cycle
  /// regardless of what the layer table says.
  static void check_header_cycles(const Tree& tree, Diagnostics& diag) {
    // 0 = unvisited, 1 = on stack, 2 = done.
    std::map<const SourceFile*, int> state;
    std::vector<const SourceFile*> stack;
    for (const SourceFile& f : tree.files()) {
      if (f.is_header) visit(tree, &f, state, stack, diag);
    }
  }

  static void visit(const Tree& tree, const SourceFile* f,
                    std::map<const SourceFile*, int>& state,
                    std::vector<const SourceFile*>& stack, Diagnostics& diag) {
    const int s = state[f];
    if (s == 2) return;
    if (s == 1) {
      std::string cycle;
      bool in_cycle = false;
      for (const SourceFile* node : stack) {
        if (node == f) in_cycle = true;
        if (in_cycle) cycle += node->rel_path + " -> ";
      }
      cycle += f->rel_path;
      diag.report(*f, 0, "header include cycle: " + cycle);
      return;
    }
    state[f] = 1;
    stack.push_back(f);
    for (const Include& inc : f->includes) {
      if (inc.angled) continue;
      const SourceFile* dep = tree.resolve_include(inc.target);
      if (dep != nullptr && dep->is_header) {
        visit(tree, dep, state, stack, diag);
      }
    }
    stack.pop_back();
    state[f] = 2;
  }
};

}  // namespace

void register_layering_pass(PassList& out) {
  out.push_back(std::make_unique<LayeringPass>());
}

}  // namespace anb::lint
