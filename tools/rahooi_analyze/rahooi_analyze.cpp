// rahooi_analyze — whole-program (cross-translation-unit) static analyzer
// for the invariants a single-file token lint cannot see. Two passes
// (DESIGN.md §14, docs/STATIC_ANALYSIS.md):
//
//   pass 1  tools/analyze_core extracts one FunctionSummary per function
//           definition: collectives used, rank-dependent control flow,
//           lock acquisitions (with the held set), cv-waits, TraceSpan
//           liveness, call sites, discarded guard temporaries.
//   pass 2  summaries are linked through a name-resolution index and
//           propagated to a fixpoint over the call graph; rules fire on
//           the propagated facts.
//
// Rules:
//   spmd-divergence     a collective reachable under rank-dependent control
//                       flow (src/core, src/dist, src/comm) — the classic
//                       `if (rank == 0) bcast` divergent-schedule bug,
//                       caught through call chains.
//   lock-cycle          a cycle (or self-edge) in the global lock-order
//                       graph, built from direct nested acquisitions and
//                       calls made while holding a lock into functions
//                       that (transitively) acquire more locks.
//   cv-wait-held-lock   a condition-variable wait while holding a second
//                       lock (src/serve, src/comm, src/metrics, src/fault)
//                       — the waited lock is released, the second is not,
//                       starving every other thread that needs it.
//   span-chain          a collective reached from src/core / src/dist with
//                       no live prof::TraceSpan anywhere on the call path —
//                       the cross-TU completion of lint's collective-span.
//   guard-discard       a guard-returning function whose result is
//                       discarded at statement position, and direct
//                       guard-type temporaries (cross-TU completion of
//                       lint's tracespan-discard).
//   allow-syntax        a `rahooi-analyze: allow(...)` directive with an
//                       empty reason or an unknown rule name.
//
// Suppression: `// rahooi-analyze: allow(rule: reason)` on the finding's
// line or the line above. The reason is mandatory; suppressions are counted
// and listed in the JSON output so they stay visible.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   rahooi_analyze --root <repo-root> [--json <file>] <dir-or-file>...
//   rahooi_analyze --self-test <fixture-root>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze_core/analyze_core.hpp"
#include "analyze_core/extract.hpp"

namespace {

namespace fs = std::filesystem;
using analyze::AllowDirective;
using analyze::CallSite;
using analyze::CollectiveUse;
using analyze::CvWait;
using analyze::FunctionSummary;
using analyze::LockAcq;

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_spmd_zone(const std::string& rel) {
  return starts_with(rel, "src/core/") || starts_with(rel, "src/dist/") ||
         starts_with(rel, "src/comm/");
}
bool in_span_zone(const std::string& rel) {
  return starts_with(rel, "src/core/") || starts_with(rel, "src/dist/");
}
bool in_cv_zone(const std::string& rel) {
  return starts_with(rel, "src/serve/") || starts_with(rel, "src/comm/") ||
         starts_with(rel, "src/metrics/") || starts_with(rel, "src/fault/");
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules{
      "spmd-divergence", "lock-cycle", "cv-wait-held-lock",
      "span-chain",      "guard-discard", "allow-syntax",
  };
  return kRules;
}

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string function;
  std::string message;
  std::vector<std::string> chain;
  // Defaulted, so a positional Finding{…} may stop at `chain` and stay
  // clean under -Wmissing-field-initializers.
  bool suppressed = false;
  std::string reason{};  ///< the allow reason when suppressed
};

struct Analysis {
  std::vector<FunctionSummary> fns;
  std::map<std::string, std::vector<AllowDirective>> allows;  // by rel path
  std::size_t file_count = 0;

  // Name-resolution index and per-call resolution (computed once).
  std::map<std::string, std::vector<int>> by_bare;
  std::vector<std::vector<std::vector<int>>> resolved;  // [fn][call] -> fns

  // Propagated facts (fixpoint over the call graph) + one witness each for
  // chain reconstruction: via_call = call index in the function (or -1 for
  // a direct fact), via_callee = resolved callee, direct = site index.
  struct Fact {
    std::vector<char> on;
    std::vector<int> via_call, via_callee, direct;
    void init(std::size_t n) {
      on.assign(n, 0);
      via_call.assign(n, -1);
      via_callee.assign(n, -1);
      direct.assign(n, -1);
    }
  };
  Fact may_collective;  // reaches any collective
  Fact exposed;         // reaches a collective with no span on the path
  Fact has_wait;        // reaches a cv-wait
  std::vector<std::set<std::string>> acq;  // transitively acquired locks
};

std::vector<int> resolve_call(const Analysis& a, const CallSite& c) {
  const auto it = a.by_bare.find(c.name);
  if (it == a.by_bare.end()) return {};
  if (c.qual.empty()) return it->second;
  const std::string target = c.qual + "::" + c.name;
  std::vector<int> out;
  for (const int idx : it->second) {
    const std::string& full = a.fns[idx].name;
    if (full == target ||
        (full.size() > target.size() + 2 &&
         full.compare(full.size() - target.size() - 2, std::string::npos,
                      "::" + target) == 0)) {
      out.push_back(idx);
    }
  }
  return out;
}

void build_index(Analysis& a) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    a.by_bare[a.fns[i].bare].push_back(static_cast<int>(i));
  }
  a.resolved.resize(a.fns.size());
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    a.resolved[i].reserve(a.fns[i].calls.size());
    for (const CallSite& c : a.fns[i].calls) {
      a.resolved[i].push_back(resolve_call(a, c));
    }
  }
}

void run_fixpoints(Analysis& a) {
  const std::size_t n = a.fns.size();
  a.may_collective.init(n);
  a.exposed.init(n);
  a.has_wait.init(n);
  a.acq.assign(n, {});

  // Seed with direct facts.
  for (std::size_t i = 0; i < n; ++i) {
    const FunctionSummary& f = a.fns[i];
    for (std::size_t k = 0; k < f.collectives.size(); ++k) {
      if (!a.may_collective.on[i]) {
        a.may_collective.on[i] = 1;
        a.may_collective.direct[i] = static_cast<int>(k);
      }
      if (!f.collectives[k].live_span && !a.exposed.on[i]) {
        a.exposed.on[i] = 1;
        a.exposed.direct[i] = static_cast<int>(k);
      }
    }
    if (!f.waits.empty()) {
      a.has_wait.on[i] = 1;
      a.has_wait.direct[i] = 0;
    }
    for (const LockAcq& l : f.locks) a.acq[i].insert(l.lock);
  }

  // Propagate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < a.fns[i].calls.size(); ++c) {
        const CallSite& call = a.fns[i].calls[c];
        for (const int j : a.resolved[i][c]) {
          if (a.may_collective.on[j] && !a.may_collective.on[i]) {
            a.may_collective.on[i] = 1;
            a.may_collective.via_call[i] = static_cast<int>(c);
            a.may_collective.via_callee[i] = j;
            changed = true;
          }
          if (a.exposed.on[j] && !call.live_span && !a.exposed.on[i]) {
            a.exposed.on[i] = 1;
            a.exposed.via_call[i] = static_cast<int>(c);
            a.exposed.via_callee[i] = j;
            changed = true;
          }
          if (a.has_wait.on[j] && !a.has_wait.on[i]) {
            a.has_wait.on[i] = 1;
            a.has_wait.via_call[i] = static_cast<int>(c);
            a.has_wait.via_callee[i] = j;
            changed = true;
          }
          for (const std::string& l : a.acq[j]) {
            if (a.acq[i].insert(l).second) changed = true;
          }
        }
      }
    }
  }
}

std::string site(const FunctionSummary& f, int line) {
  return f.name + " (" + f.file + ":" + std::to_string(line) + ")";
}

/// Reconstructs the witness chain for a propagated fact starting at fn i.
std::vector<std::string> trace_chain(const Analysis& a,
                                     const Analysis::Fact& fact, int i) {
  std::vector<std::string> out;
  int cur = i;
  int guard = 0;
  while (cur >= 0 && ++guard < 64) {
    const FunctionSummary& f = a.fns[cur];
    if (fact.direct[cur] >= 0) {
      if (&fact == &a.has_wait) {
        const CvWait& w = f.waits.front();
        out.push_back("cv-wait on " + w.lock + " in " + site(f, w.line));
      } else {
        const CollectiveUse& u =
            f.collectives[static_cast<std::size_t>(fact.direct[cur])];
        out.push_back("collective " + u.op + "() in " + site(f, u.line));
      }
      break;
    }
    const int c = fact.via_call[cur];
    if (c < 0) break;
    const CallSite& call = f.calls[static_cast<std::size_t>(c)];
    out.push_back("call " + call.name + "() in " + site(f, call.line));
    cur = fact.via_callee[cur];
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

void rule_spmd(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    if (!in_spmd_zone(f.file)) continue;
    for (const CollectiveUse& u : f.collectives) {
      if (!u.under_rank) continue;
      out.push_back(Finding{
          "spmd-divergence", f.file, u.line, f.name,
          "collective " + u.op +
              "() invoked under rank-dependent control flow; every rank "
              "must issue an identical collective schedule (replicate the "
              "verdict with a bcast/allreduce first)",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (!call.under_rank) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.may_collective.on[j]) continue;
        Finding fd{"spmd-divergence", f.file, call.line, f.name,
                   "call to " + call.name +
                       "() under rank-dependent control flow reaches a "
                       "collective; the schedule diverges across ranks",
                   trace_chain(a, a.may_collective, j)};
        out.push_back(std::move(fd));
        break;
      }
    }
  }
}

void rule_lock_cycle(const Analysis& a, std::vector<Finding>& out) {
  struct Edge {
    std::string file;
    int line = 0;
    std::string fn;
    std::string note;
  };
  std::map<std::pair<std::string, std::string>, Edge> edges;
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const FunctionSummary& f, int line,
                            std::string note) {
    edges.emplace(std::make_pair(from, to),
                  Edge{f.file, line, f.name, std::move(note)});
  };

  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const LockAcq& l : f.locks) {
      for (const std::string& h : l.held) {
        if (h != l.lock) add_edge(h, l.lock, f, l.line, "direct acquisition");
      }
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.held.empty()) continue;
      for (const int j : a.resolved[i][c]) {
        for (const std::string& l : a.acq[j]) {
          for (const std::string& h : call.held) {
            if (h == l) {
              out.push_back(Finding{
                  "lock-cycle", f.file, call.line, f.name,
                  "call to " + call.name + "() while holding " + h +
                      " reaches a second acquisition of " + h +
                      " (self-deadlock on a non-recursive mutex)",
                  {"via " + a.fns[j].name + " (" + a.fns[j].file + ")"}});
            } else {
              add_edge(h, l, f, call.line,
                       "via call to " + a.fns[j].name);
            }
          }
        }
      }
    }
  }

  // Cycle detection over the deduplicated edge set.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [k, e] : edges) adj[k.first].push_back(k.second);
  std::set<std::string> done;
  std::set<std::string> reported;
  for (const auto& [start, _] : adj) {
    if (done.count(start) != 0) continue;
    std::vector<std::string> path;
    std::set<std::string> on_path;
    const std::function<void(const std::string&)> dfs =
        [&](const std::string& u) {
          path.push_back(u);
          on_path.insert(u);
          const auto it = adj.find(u);
          if (it != adj.end()) {
            for (const std::string& v : it->second) {
              if (on_path.count(v) != 0) {
                // Reconstruct the cycle v -> ... -> u -> v.
                std::vector<std::string> cyc(
                    std::find(path.begin(), path.end(), v), path.end());
                std::vector<std::string> canon = cyc;
                std::sort(canon.begin(), canon.end());
                std::string key;
                for (const std::string& s : canon) key += s + "|";
                if (reported.insert(key).second) {
                  std::vector<std::string> chain;
                  for (std::size_t k = 0; k < cyc.size(); ++k) {
                    const auto& from = cyc[k];
                    const auto& to = cyc[(k + 1) % cyc.size()];
                    const Edge& e = edges.at({from, to});
                    chain.push_back(from + " -> " + to + " at " + e.file +
                                    ":" + std::to_string(e.line) + " in " +
                                    e.fn + " (" + e.note + ")");
                  }
                  const Edge& first = edges.at({cyc[0], cyc[1 % cyc.size()]});
                  out.push_back(Finding{
                      "lock-cycle", first.file, first.line, first.fn,
                      "lock-order cycle through " +
                          std::to_string(cyc.size()) +
                          " lock(s); acquisitions in this order can "
                          "deadlock",
                      std::move(chain)});
                }
              } else if (done.count(v) == 0) {
                dfs(v);
              }
            }
          }
          on_path.erase(u);
          path.pop_back();
          done.insert(u);
        };
    dfs(start);
  }
}

void rule_cv_wait(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    if (!in_cv_zone(f.file)) continue;
    for (const CvWait& w : f.waits) {
      if (w.held.size() < 2) continue;
      std::string others;
      for (const std::string& h : w.held) {
        if (h == w.lock) continue;
        if (!others.empty()) others += ", ";
        others += h;
      }
      out.push_back(Finding{
          "cv-wait-held-lock", f.file, w.line, f.name,
          "cv-wait releases " + w.lock + " but still holds " + others +
              "; every thread needing that lock starves until the wake-up",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.held.empty()) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.has_wait.on[j]) continue;
        std::string held;
        for (const std::string& h : call.held) {
          if (!held.empty()) held += ", ";
          held += h;
        }
        out.push_back(Finding{
            "cv-wait-held-lock", f.file, call.line, f.name,
            "call to " + call.name + "() while holding " + held +
                " reaches a cv-wait; the held lock is not released across "
                "the wait",
            trace_chain(a, a.has_wait, j)});
        break;
      }
    }
  }
}

void rule_span_chain(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    if (!in_span_zone(f.file)) continue;
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (call.live_span) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.exposed.on[j]) continue;
        out.push_back(Finding{
            "span-chain", f.file, call.line, f.name,
            "call to " + call.name +
                "() reaches a collective with no live prof::TraceSpan "
                "anywhere on the path; watchdog and divergence reports "
                "would have no span path",
            trace_chain(a, a.exposed, j)});
        break;
      }
    }
  }
}

void rule_guard_discard(const Analysis& a, std::vector<Finding>& out) {
  for (std::size_t i = 0; i < a.fns.size(); ++i) {
    const FunctionSummary& f = a.fns[i];
    for (const auto& d : f.discards) {
      out.push_back(Finding{
          "guard-discard", f.file, d.line, f.name,
          d.type +
              " temporary is destroyed immediately; bind it to a named "
              "local so the guarded region outlives the statement",
          {}});
    }
    for (std::size_t c = 0; c < f.calls.size(); ++c) {
      const CallSite& call = f.calls[c];
      if (!call.discarded_stmt) continue;
      for (const int j : a.resolved[i][c]) {
        if (!a.fns[j].returns_guard) continue;
        out.push_back(Finding{
            "guard-discard", f.file, call.line, f.name,
            "discarded result of " + call.name + "() — " + a.fns[j].name +
                " returns an RAII guard; the guarded region collapses to "
                "this statement",
            {a.fns[j].name + " declared at " + a.fns[j].file + ":" +
             std::to_string(a.fns[j].line)}});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

int load_file(Analysis& a, const fs::path& real, const std::string& rel) {
  std::string src;
  if (!analyze::read_file(real, src)) {
    std::fprintf(stderr, "rahooi_analyze: cannot read %s\n",
                 real.string().c_str());
    return 2;
  }
  analyze::FileSource f = analyze::tokenize(src);
  std::vector<FunctionSummary> fns = analyze::extract(f, rel);
  for (FunctionSummary& fn : fns) a.fns.push_back(std::move(fn));
  a.allows[rel] = std::move(f.allows);
  ++a.file_count;
  return 0;
}

std::vector<Finding> run_rules(Analysis& a) {
  build_index(a);
  run_fixpoints(a);
  std::vector<Finding> findings;
  rule_spmd(a, findings);
  rule_lock_cycle(a, findings);
  rule_cv_wait(a, findings);
  rule_span_chain(a, findings);
  rule_guard_discard(a, findings);

  // Suppression: an unused analyze allow for the rule on the finding's line
  // or the line above.
  for (Finding& fd : findings) {
    auto it = a.allows.find(fd.file);
    if (it == a.allows.end()) continue;
    const std::size_t k =
        analyze::match_allow(it->second, "analyze", fd.rule, fd.line);
    if (k != static_cast<std::size_t>(-1)) {
      fd.suppressed = true;
      fd.reason = it->second[k].reason;
    }
  }

  // Directive hygiene: reasons are mandatory, rule names must exist.
  for (auto& [rel, allows] : a.allows) {
    for (const AllowDirective& d : allows) {
      if (d.tool != "analyze") continue;
      if (d.reason.empty()) {
        findings.push_back(Finding{
            "allow-syntax", rel, d.line, "",
            "allow(" + d.rule +
                ") has no reason; the justification is mandatory "
                "(rahooi-analyze: allow(rule: reason))",
            {}});
      } else if (known_rules().count(d.rule) == 0) {
        findings.push_back(Finding{
            "allow-syntax", rel, d.line, "",
            "allow names unknown rule '" + d.rule + "'", {}});
      }
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& x, const Finding& y) {
              return std::tie(x.file, x.line, x.rule) <
                     std::tie(y.file, y.line, y.rule);
            });
  return findings;
}

void print_findings(const std::vector<Finding>& findings) {
  for (const Finding& fd : findings) {
    if (fd.suppressed) continue;
    std::fprintf(stderr, "%s:%d: [%s] %s\n", fd.file.c_str(), fd.line,
                 fd.rule.c_str(), fd.message.c_str());
    for (const std::string& link : fd.chain) {
      std::fprintf(stderr, "    %s\n", link.c_str());
    }
  }
}

bool write_json(const fs::path& path, const Analysis& a,
                const std::vector<Finding>& findings) {
  std::ofstream out(path);
  if (!out.good()) return false;
  std::size_t unsup = 0;
  std::size_t sup = 0;
  for (const Finding& fd : findings) (fd.suppressed ? sup : unsup)++;
  out << "{\n  \"tool\": \"rahooi_analyze\",\n";
  out << "  \"files\": " << a.file_count << ",\n";
  out << "  \"functions\": " << a.fns.size() << ",\n";
  out << "  \"finding_count\": " << unsup << ",\n";
  out << "  \"suppressed_count\": " << sup << ",\n";
  const auto emit = [&](const Finding& fd, bool last) {
    out << "    {\"rule\": \"" << analyze::json_escape(fd.rule)
        << "\", \"file\": \"" << analyze::json_escape(fd.file)
        << "\", \"line\": " << fd.line << ", \"function\": \""
        << analyze::json_escape(fd.function) << "\", \"message\": \""
        << analyze::json_escape(fd.message) << "\"";
    if (!fd.chain.empty()) {
      out << ", \"chain\": [";
      for (std::size_t k = 0; k < fd.chain.size(); ++k) {
        out << (k != 0 ? ", " : "") << "\""
            << analyze::json_escape(fd.chain[k]) << "\"";
      }
      out << "]";
    }
    if (fd.suppressed) {
      out << ", \"reason\": \"" << analyze::json_escape(fd.reason) << "\"";
    }
    out << "}" << (last ? "" : ",") << "\n";
  };
  out << "  \"findings\": [\n";
  std::vector<const Finding*> un;
  std::vector<const Finding*> su;
  for (const Finding& fd : findings) {
    (fd.suppressed ? su : un).push_back(&fd);
  }
  for (std::size_t k = 0; k < un.size(); ++k) {
    emit(*un[k], k + 1 == un.size());
  }
  out << "  ],\n  \"suppressed\": [\n";
  for (std::size_t k = 0; k < su.size(); ++k) {
    emit(*su[k], k + 1 == su.size());
  }
  out << "  ]\n}\n";
  return out.good();
}

int run_analyze(const fs::path& root, const std::vector<std::string>& paths,
                const std::string& json_out) {
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    fs::path full = fs::path(p).is_absolute() ? fs::path(p) : root / p;
    std::error_code ec;
    if (fs::is_directory(full, ec)) {
      for (const auto& entry : fs::recursive_directory_iterator(full)) {
        if (!entry.is_regular_file()) continue;
        const fs::path ext = entry.path().extension();
        if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
      }
    } else if (fs::exists(full, ec)) {
      files.push_back(full);
    } else {
      std::fprintf(stderr, "rahooi_analyze: no such path: %s\n",
                   full.string().c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  Analysis a;
  for (const fs::path& file : files) {
    std::error_code ec;
    fs::path rel = fs::relative(file, root, ec);
    const std::string rel_str =
        ec ? file.generic_string() : rel.generic_string();
    if (const int rc = load_file(a, file, rel_str); rc != 0) return rc;
  }
  const std::vector<Finding> findings = run_rules(a);

  if (!json_out.empty() && !write_json(json_out, a, findings)) {
    std::fprintf(stderr, "rahooi_analyze: cannot write %s\n",
                 json_out.c_str());
    return 2;
  }
  print_findings(findings);
  std::size_t unsup = 0;
  std::size_t sup = 0;
  for (const Finding& fd : findings) (fd.suppressed ? sup : unsup)++;
  if (unsup != 0) {
    std::fprintf(stderr,
                 "rahooi_analyze: %zu finding(s) (%zu suppressed) across "
                 "%zu file(s), %zu function(s)\n",
                 unsup, sup, a.file_count, a.fns.size());
    return 1;
  }
  std::printf(
      "rahooi_analyze: %zu files, %zu functions clean (%zu suppressed)\n",
      a.file_count, a.fns.size(), sup);
  return 0;
}

/// Fixture self-test: each subdirectory of the fixture root is analyzed as
/// its own mini-tree. `bad_<rule>[.<case>]/` must yield exactly one
/// unsuppressed finding of rule <rule> (underscores map to dashes; the
/// optional `.<case>` suffix lets one rule have several fixtures);
/// `clean*/` must yield none. File names map to tree paths: `core__x.cpp`
/// is analyzed as `src/core/x.cpp`.
int run_self_test(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "rahooi_analyze: no fixture dir: %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory()) cases.push_back(entry.path());
  }
  std::sort(cases.begin(), cases.end());

  int checked = 0;
  int failures = 0;
  for (const fs::path& c : cases) {
    const std::string name = c.filename().string();
    Analysis a;
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(c)) {
      if (!entry.is_regular_file()) continue;
      const fs::path ext = entry.path().extension();
      if (ext == ".cpp" || ext == ".hpp") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::string rel = file.filename().string();
      std::size_t pos;
      while ((pos = rel.find("__")) != std::string::npos) {
        rel.replace(pos, 2, "/");
      }
      rel = "src/" + rel;
      if (const int rc = load_file(a, file, rel); rc != 0) return rc;
    }
    const std::vector<Finding> findings = run_rules(a);
    std::vector<const Finding*> unsup;
    for (const Finding& fd : findings) {
      if (!fd.suppressed) unsup.push_back(&fd);
    }

    if (starts_with(name, "bad_")) {
      std::string rule = name.substr(4, name.find('.') - 4);
      std::replace(rule.begin(), rule.end(), '_', '-');
      ++checked;
      if (unsup.size() != 1 || unsup.front()->rule != rule) {
        std::fprintf(stderr,
                     "rahooi_analyze self-test FAIL: %s expected exactly one "
                     "[%s] finding, got %zu:\n",
                     name.c_str(), rule.c_str(), unsup.size());
        print_findings(findings);
        ++failures;
      }
    } else if (starts_with(name, "clean")) {
      ++checked;
      if (!unsup.empty()) {
        std::fprintf(stderr,
                     "rahooi_analyze self-test FAIL: %s expected no "
                     "findings, got %zu:\n",
                     name.c_str(), unsup.size());
        print_findings(findings);
        ++failures;
      }
    }
  }
  if (checked == 0) {
    std::fprintf(stderr, "rahooi_analyze self-test FAIL: no fixtures found\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "rahooi_analyze self-test: %d of %d fixtures failed\n",
                 failures, checked);
    return 1;
  }
  std::printf("rahooi_analyze self-test: %d fixtures OK\n", checked);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string json_out;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--self-test" && i + 1 < argc) {
      return run_self_test(argv[++i]);
    } else if (arg == "--help") {
      std::printf(
          "usage: rahooi_analyze [--root DIR] [--json FILE] "
          "<dir-or-file>...\n"
          "       rahooi_analyze --self-test <fixture-root>\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "usage: rahooi_analyze [--root DIR] [--json FILE] "
                 "<dir-or-file>...\n"
                 "       rahooi_analyze --self-test <fixture-root>\n");
    return 2;
  }
  return run_analyze(root, paths, json_out);
}
