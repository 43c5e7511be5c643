// The typed rule engine: structural ports of the five historical
// scripts/lint.sh rules plus the three analyses the shell could not express
// (flow-sensitive persist paths, chained dropped results, include layering).
//
// Path scoping mirrors the original shell rules exactly; see scripts/lint.sh
// history and DESIGN.md §11 for the rationale of each exemption list.
#include "pmemlint.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <sstream>

namespace pmemlint {

namespace {

bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}
bool is_ident(const Token& t, std::string_view id) {
  return t.kind == Tok::kIdent && t.text == id;
}

bool has_prefix(std::string_view s, std::string_view pre) {
  return s.size() >= pre.size() && s.compare(0, pre.size(), pre) == 0;
}

bool any_prefix(std::string_view s, std::initializer_list<const char*> pres) {
  for (const char* p : pres)
    if (has_prefix(s, p)) return true;
  return false;
}

void add_finding(std::vector<Finding>& out, const char* rule,
                 const SourceFile& f, int line, std::string context,
                 std::string message) {
  // Inline suppression: `pmemlint: allow(rule)` on this line or the line
  // above.
  for (int l : {line, line - 1}) {
    auto it = f.allows.find(l);
    if (it != f.allows.end() && it->second.count(rule)) return;
  }
  out.push_back(Finding{rule, f.rel, line, std::move(message),
                        std::move(context), false});
}

/// Enclosing-function context for a token index ("-" outside any function).
std::string fn_context(const SourceFile& f, std::size_t ti) {
  const Function* fn = f.function_at(ti);
  return fn ? fn->name : std::string("-");
}

// ---------------------------------------------------------------------------
// Rule 1 — raw-device: Device::note_write() confined to the device layer,
// raw() to the storage layers
// ---------------------------------------------------------------------------

void rule_raw_device(const Corpus& corpus, std::vector<Finding>& out) {
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    if (!any_prefix(f.rel, {"src/", "include/", "bench/", "examples/"}))
      continue;
    if (any_prefix(f.rel, {"src/pmemdev/", "include/pmemcpy/pmem/"}))
      continue;
    // The pool and pmemfs may read through raw() (uncharged peeks), but
    // they store through the device's DAX calls, which announce the store.
    const bool storage = any_prefix(
        f.rel, {"src/pmemobj/", "src/pmemfs/", "include/pmemcpy/obj/",
                "include/pmemcpy/fs/"});
    const auto& ts = f.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (!is_punct(ts[i + 1], "(")) continue;
      const bool member =
          i > 0 && (is_punct(ts[i - 1], ".") || is_punct(ts[i - 1], "->"));
      if (is_ident(ts[i], "note_write") ||
          (!storage && member && is_ident(ts[i], "raw"))) {
        add_finding(out, "raw-device", f, ts[i].line, fn_context(f, i),
                    "raw device access (" + std::string(ts[i].text) +
                        ") outside the device layer's DAX calls bypasses "
                        "the charged/persist-checked transfer path");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 2 — unregistered-test: every tests/*_test.cpp is in CMakeLists.txt
// ---------------------------------------------------------------------------

void rule_unregistered_test(const Corpus& corpus, std::vector<Finding>& out) {
  if (corpus.tests_cmake.empty()) return;
  // Strip cmake comments, then collect pmemcpy_test(<name> registrations.
  std::set<std::string> registered;
  std::istringstream in(corpus.tests_cmake);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::size_t p = 0;
    while ((p = line.find("pmemcpy_test(", p)) != std::string::npos) {
      p += 13;
      std::size_t e = p;
      while (e < line.size() && line[e] != ' ' && line[e] != ')') ++e;
      registered.insert(line.substr(p, e - p));
    }
  }
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    if (!has_prefix(f.rel, "tests/")) continue;
    const std::string_view base = std::string_view(f.rel).substr(6);
    if (base.find('/') != std::string_view::npos) continue;
    constexpr std::string_view kSuffix = "_test.cpp";
    if (base.size() <= kSuffix.size() ||
        base.compare(base.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0)
      continue;
    const std::string name(base.substr(0, base.size() - 4));  // drop .cpp
    if (!registered.count(name)) {
      add_finding(out, "unregistered-test", f, 1, name,
                  f.rel + " is not registered in tests/CMakeLists.txt and "
                          "silently never runs in CI");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3 — container-layering: obj::HashTable / fs::FileSystem stay behind
// the engine
// ---------------------------------------------------------------------------

void rule_container_layering(const Corpus& corpus, std::vector<Finding>& out) {
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    if (!any_prefix(f.rel, {"src/", "include/"})) continue;
    if (any_prefix(f.rel,
                   {"src/engine/", "src/pmemobj/", "src/pmemfs/",
                    "src/baselines/", "include/pmemcpy/engine/",
                    "include/pmemcpy/obj/", "include/pmemcpy/fs/"}) ||
        f.rel == "include/pmemcpy/core/node.hpp")
      continue;
    const auto& ts = f.tokens;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
      if (!is_punct(ts[i + 1], "::")) continue;
      const bool ht = is_ident(ts[i], "obj") && is_ident(ts[i + 2], "HashTable");
      const bool fsys =
          is_ident(ts[i], "fs") && is_ident(ts[i + 2], "FileSystem");
      if (ht || fsys) {
        add_finding(out, "container-layering", f, ts[i].line, fn_context(f, i),
                    "container type " + std::string(ts[i].text) + "::" +
                        std::string(ts[i + 2].text) +
                        " named outside the engine/storage layers (go "
                        "through engine::Engine)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 4 — raw-clock: sim::ctx().now() confined to the time layers
// ---------------------------------------------------------------------------

void rule_raw_clock(const Corpus& corpus, std::vector<Finding>& out) {
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    if (!any_prefix(f.rel, {"src/", "include/", "bench/", "examples/"}))
      continue;
    if (any_prefix(f.rel, {"src/simtime/", "src/trace/", "src/par/",
                           "src/pfs/", "include/pmemcpy/sim/",
                           "include/pmemcpy/trace/"}))
      continue;
    const auto& ts = f.tokens;
    for (std::size_t i = 1; i + 2 < ts.size(); ++i) {
      if (!is_ident(ts[i], "now")) continue;
      if (!is_punct(ts[i - 1], ".") && !is_punct(ts[i - 1], "->")) continue;
      if (!is_punct(ts[i + 1], "(") || !is_punct(ts[i + 2], ")")) continue;
      add_finding(out, "raw-clock", f, ts[i].line, fn_context(f, i),
                  "raw simulated-clock read bypasses trace-span attribution; "
                  "take timestamps from trace spans or a DrainReport");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 5 — dropped-result: health-probe verdicts must be consumed
// ---------------------------------------------------------------------------

/// [[nodiscard]]-style signature table: probe name -> {min_args, max_args}.
/// Only statement-position calls whose terminal callee matches (by name and
/// arity, through any receiver chain) are findings; arity keeps annotation
/// hooks that share a probe's name (none today, after the publish renames)
/// out of the probe namespace.
struct ProbeSig {
  const char* name;
  int min_args;
  int max_args;
};
constexpr ProbeSig kProbes[] = {
    {"scrub", 0, 0},        // PMEM::scrub, Pool::scrub -> ScrubReport
    {"repair", 0, 0},       // PMEM::repair -> RepairReport
    {"check", 0, 0},        // Pool::check -> CheckReport
    {"check_health", 0, 1}, // PMEM::check_health(comm) -> ft::Health
    {"quarantine", 1, 2},   // Pool/Engine::quarantine -> ft::Status / bool
    {"publish", 0, 3},      // HashTable::Inserter::publish -> bool
};

/// Match the '(' of the call closing at token @p close (ts[close] == ")").
std::size_t open_of(const std::vector<Token>& ts, std::size_t close) {
  int depth = 0;
  for (std::size_t j = close + 1; j-- > 0;) {
    if (is_punct(ts[j], ")")) ++depth;
    if (is_punct(ts[j], "(") && --depth == 0) return j;
  }
  return close;
}

int call_arity(const std::vector<Token>& ts, std::size_t open,
               std::size_t close) {
  if (open + 1 == close) return 0;
  int commas = 0, paren = 0, brace = 0, brack = 0;
  for (std::size_t j = open + 1; j < close; ++j) {
    const Token& t = ts[j];
    if (t.kind != Tok::kPunct) continue;
    if (t.text == "(") ++paren;
    else if (t.text == ")") --paren;
    else if (t.text == "{") ++brace;
    else if (t.text == "}") --brace;
    else if (t.text == "[") ++brack;
    else if (t.text == "]") --brack;
    else if (t.text == "," && paren == 0 && brace == 0 && brack == 0) ++commas;
  }
  return commas + 1;
}

void scan_discards(const SourceFile& f, const Stmt& s, const Function& fn,
                   std::vector<Finding>& out) {
  for (const auto& c : s.children) scan_discards(f, c, fn, out);
  if (s.kind != StmtKind::kExpr || s.lo >= s.hi) return;
  const auto& ts = f.tokens;
  // Explicit discard or a binding consumes the result.
  if (is_punct(ts[s.lo], "(") && s.lo + 2 < s.hi &&
      is_ident(ts[s.lo + 1], "void") && is_punct(ts[s.lo + 2], ")"))
    return;
  int paren = 0, brace = 0, brack = 0;
  for (std::size_t j = s.lo; j < s.hi; ++j) {
    const Token& t = ts[j];
    if (t.kind != Tok::kPunct) continue;
    if (t.text == "(") ++paren;
    else if (t.text == ")") --paren;
    else if (t.text == "{") ++brace;
    else if (t.text == "}") --brace;
    else if (t.text == "[") ++brack;
    else if (t.text == "]") --brack;
    else if (paren == 0 && brace == 0 && brack == 0 &&
             (t.text == "=" || t.text == "+=" || t.text == "-=" ||
              t.text == "*=" || t.text == "/=" || t.text == "%=" ||
              t.text == "&=" || t.text == "|=" || t.text == "^=" ||
              t.text == "<<=" || t.text == ">>="))
      return;  // assigned somewhere: consumed
  }
  // Terminal call of the statement.
  if (!is_punct(ts[s.hi - 1], ")")) return;
  const std::size_t open = open_of(ts, s.hi - 1);
  if (open == s.hi - 1 || open == 0) return;
  const Token& callee = ts[open - 1];
  if (callee.kind != Tok::kIdent) return;
  const bool member = open >= 2 && (is_punct(ts[open - 2], ".") ||
                                    is_punct(ts[open - 2], "->"));
  if (!member) return;  // the probes are all member functions
  const int arity = call_arity(ts, open, s.hi - 1);
  for (const ProbeSig& p : kProbes) {
    if (callee.text != p.name || arity < p.min_args || arity > p.max_args)
      continue;
    add_finding(out, "dropped-result", f, callee.line, fn.name,
                "result of health probe " + std::string(callee.text) +
                    "() is discarded; bind it (or `(void)` it to make the "
                    "intent explicit)");
    return;
  }
}

void rule_dropped_result(const Corpus& corpus, std::vector<Finding>& out) {
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    if (!any_prefix(f.rel,
                    {"src/", "include/", "bench/", "examples/", "tests/"}))
      continue;
    for (const Function& fn : f.functions) {
      const Stmt body = parse_block(f, fn.body_lo + 1, fn.body_hi);
      scan_discards(f, body, fn, out);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 6 — unpersisted-return: flow-sensitive persist-path check
// ---------------------------------------------------------------------------

/// Store vocabulary (dirties persistent state) and persist vocabulary
/// (makes it durable / hands durability off).  The device layer itself is
/// out of scope — it *implements* these ops.
constexpr const char* kWriteOps[] = {"store", "store_span", "note_write"};
constexpr const char* kPersistOps[] = {"persist", "flush",  "drain",
                                       "fsync",   "publish", "check_publish",
                                       "publish_group"};

bool in_list(std::string_view name, const char* const* lst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (name == lst[i]) return true;
  return false;
}
bool is_write_op(std::string_view s) {
  return in_list(s, kWriteOps, std::size(kWriteOps));
}
bool is_persist_op(std::string_view s) {
  return in_list(s, kPersistOps, std::size(kPersistOps));
}

/// Functions that are themselves store primitives or persist primitives
/// forward durability to their callers and must not self-flag (Pool::write
/// and Mapping::store wrap the device's store by design).
bool is_primitive_name(std::string_view s) {
  return is_write_op(s) || is_persist_op(s) || s == "write";
}

/// `x.store(v, std::memory_order_*)` is a DRAM atomic, not a pmem store:
/// the memory-order argument is the give-away (no pmem write op takes
/// one).  Scan the argument list, nesting-aware, for such an identifier.
bool is_dram_atomic_store(const SourceFile& f, std::size_t i) {
  const auto& ts = f.tokens;
  if (ts[i].text != "store") return false;
  int depth = 0;
  for (std::size_t j = i + 1; j < ts.size(); ++j) {
    if (ts[j].kind == Tok::kPunct) {
      if (ts[j].text == "(") ++depth;
      if (ts[j].text == ")" && --depth == 0) break;
    }
    if (ts[j].kind == Tok::kIdent &&
        ts[j].text.rfind("memory_order", 0) == 0) {
      return true;
    }
  }
  return false;
}

/// Abstract state: clean, or dirty since `first_write_line`.
struct PState {
  bool dirty = false;
  int first_write_line = 0;
  bool operator<(const PState& o) const {
    return std::tie(dirty, first_write_line) <
           std::tie(o.dirty, o.first_write_line);
  }
};
using PStates = std::set<PState>;

struct PersistAnalysis {
  const SourceFile& f;
  /// Corpus-wide summaries: function name -> every definition of that name
  /// persists on all normal exits (so a call to it counts as a persist op).
  const std::map<std::string, bool>& persists_by_name;
  PStates exits;  ///< states at normal exits (returns + fall-through)

  /// Apply the calls in token span [lo, hi) left-to-right.
  PStates apply_span(std::size_t lo, std::size_t hi, PStates in) const {
    const auto& ts = f.tokens;
    for (std::size_t i = lo; i < hi; ++i) {
      if (ts[i].kind != Tok::kIdent || i + 1 >= ts.size() ||
          !is_punct(ts[i + 1], "("))
        continue;
      const std::string_view name = ts[i].text;
      bool persist = is_persist_op(name);
      if (!persist) {
        auto it = persists_by_name.find(std::string(name));
        persist = it != persists_by_name.end() && it->second;
      }
      if (persist) {
        in = PStates{PState{false, 0}};
      } else if (is_write_op(name) && !is_dram_atomic_store(f, i)) {
        PStates next;
        for (const PState& s : in)
          next.insert(PState{true, s.dirty ? s.first_write_line
                                           : ts[i].line});
        in = std::move(next);
      }
    }
    return in;
  }

  PStates eval(const Stmt& s, PStates in) {
    switch (s.kind) {
      case StmtKind::kBlock: {
        for (const auto& c : s.children) in = eval(c, in);
        return in;
      }
      case StmtKind::kExpr:
        return apply_span(s.lo, s.hi, std::move(in));
      case StmtKind::kReturn: {
        in = apply_span(s.lo, s.hi, std::move(in));
        exits.insert(in.begin(), in.end());
        return PStates{};  // no fall-through
      }
      case StmtKind::kThrow:
        // Exceptional exit: the persist-path contract covers normal
        // returns; abort paths are the crash harness's job.
        apply_span(s.lo, s.hi, std::move(in));
        return PStates{};
      case StmtKind::kIf: {
        in = apply_span(s.lo, s.hi, std::move(in));  // condition
        PStates out = eval(s.children[0], in);
        if (s.children.size() > 1) {
          PStates e = eval(s.children[1], in);
          out.insert(e.begin(), e.end());
        } else {
          out.insert(in.begin(), in.end());
        }
        return out;
      }
      case StmtKind::kLoop: {
        in = apply_span(s.lo, s.hi, std::move(in));  // header
        PStates all = in;
        for (int iter = 0; iter < 4; ++iter) {  // tiny lattice: fast fixpoint
          PStates out = eval(s.children[0], all);
          const std::size_t before = all.size();
          all.insert(out.begin(), out.end());
          if (all.size() == before) break;
        }
        return all;
      }
      case StmtKind::kTry: {
        PStates body = eval(s.children[0], in);
        PStates all = body;
        // A handler can be entered from any point in the body: entry state
        // is approximated as entry ∪ body-exit.
        PStates handler_in = in;
        handler_in.insert(body.begin(), body.end());
        for (std::size_t c = 1; c < s.children.size(); ++c) {
          PStates h = eval(s.children[c], handler_in);
          all.insert(h.begin(), h.end());
        }
        return all;
      }
    }
    return in;
  }
};

/// True when every normal exit of @p fn is clean assuming a clean entry
/// (used both for flagging and for the one-level call summaries).
struct FnPersistResult {
  bool stores = false;         ///< body contains a write op at all
  bool clean_exits = true;     ///< no normal exit is dirty
  PState worst;                ///< a dirty exit state, when any
};

FnPersistResult analyze_fn(const SourceFile& f, const Function& fn,
                           const std::map<std::string, bool>& summaries) {
  FnPersistResult r;
  for (std::size_t i = fn.body_lo; i < fn.body_hi; ++i)
    if (f.tokens[i].kind == Tok::kIdent && is_write_op(f.tokens[i].text) &&
        i + 1 < f.tokens.size() && is_punct(f.tokens[i + 1], "(") &&
        !is_dram_atomic_store(f, i))
      r.stores = true;
  if (!r.stores) return r;

  PersistAnalysis pa{f, summaries, {}};
  const Stmt body = parse_block(f, fn.body_lo + 1, fn.body_hi);
  PStates fall = pa.eval(body, PStates{PState{false, 0}});
  pa.exits.insert(fall.begin(), fall.end());
  for (const PState& s : pa.exits)
    if (s.dirty) {
      r.clean_exits = false;
      r.worst = s;
      break;
    }
  return r;
}

void rule_unpersisted_return(const Corpus& corpus, std::vector<Finding>& out) {
  // Pass 1: one-level call summaries over the whole corpus — a function
  // name maps to true only if every definition of that name both stores
  // and persists before every normal exit (e.g. tree_finalize), so calling
  // it counts as persisting.  Ambiguous names stay false (conservative).
  std::map<std::string, bool> summaries;
  const std::map<std::string, bool> empty;
  for (const auto& fp : corpus.files) {
    for (const Function& fn : fp->functions) {
      if (is_primitive_name(fn.name)) continue;
      const FnPersistResult r = analyze_fn(*fp, fn, empty);
      const bool qualifies = r.stores && r.clean_exits;
      auto [it, inserted] = summaries.emplace(fn.name, qualifies);
      if (!inserted) it->second = it->second && qualifies;
    }
  }

  // Pass 2: flag storage-layer functions with a dirty normal exit.
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    const Layer layer = layer_of(f.rel);
    if (layer.name != "obj" && layer.name != "fs" && layer.name != "engine")
      continue;
    for (const Function& fn : f.functions) {
      // The store primitives themselves forward to the device and must not
      // self-flag (their callers own the flush).
      if (is_primitive_name(fn.name)) continue;
      const FnPersistResult r = analyze_fn(f, fn, summaries);
      if (!r.stores || r.clean_exits) continue;
      add_finding(out, "unpersisted-return", f, r.worst.first_write_line,
                  fn.name,
                  "store in '" + fn.name +
                      "' can reach a return with no flush/fence/publish on "
                      "some path (static persist-path check)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 7 — include-layering: the header DAG must respect
// sim → trace → pmem → obj/fs → engine → core
// ---------------------------------------------------------------------------

struct Include {
  std::string target;  ///< repo-relative resolved path
  int line;
};

std::vector<Include> includes_of(const SourceFile& f) {
  std::vector<Include> out;
  for (const Token& t : f.tokens) {
    if (t.kind != Tok::kPP) continue;
    std::string_view s = t.text;
    std::size_t p = s.find_first_not_of(" \t", 1);  // past '#'
    if (p == std::string_view::npos ||
        s.compare(p, 7, "include") != 0)
      continue;
    p = s.find_first_not_of(" \t", p + 7);
    if (p == std::string_view::npos) continue;
    if (s[p] == '<') {
      const std::size_t e = s.find('>', p + 1);
      if (e == std::string_view::npos) continue;
      const std::string_view inner = s.substr(p + 1, e - p - 1);
      if (has_prefix(inner, "pmemcpy/") || has_prefix(inner, "miniio/"))
        out.push_back(Include{"include/" + std::string(inner), t.line});
    } else if (s[p] == '"') {
      const std::size_t e = s.find('"', p + 1);
      if (e == std::string_view::npos) continue;
      const std::string_view inner = s.substr(p + 1, e - p - 1);
      // Resolve relative to the including file's directory.
      const std::size_t slash = f.rel.rfind('/');
      const std::string dir =
          slash == std::string::npos ? "" : f.rel.substr(0, slash + 1);
      out.push_back(Include{dir + std::string(inner), t.line});
    }
  }
  return out;
}

void rule_include_layering(const Corpus& corpus, std::vector<Finding>& out) {
  // Inverted edges.
  for (const auto& fp : corpus.files) {
    const SourceFile& f = *fp;
    const Layer from = layer_of(f.rel);
    if (from.rank < 0) continue;  // tests/bench/examples: unconstrained
    for (const Include& inc : includes_of(f)) {
      const Layer to = layer_of(inc.target);
      if (to.rank < 0) continue;
      if (to.rank > from.rank && to.name != from.name) {
        add_finding(out, "include-layering", f, inc.line, inc.target,
                    "layer '" + from.name + "' (rank " +
                        std::to_string(from.rank) + ") includes '" +
                        inc.target + "' from higher layer '" + to.name +
                        "' (rank " + std::to_string(to.rank) +
                        "): inverts sim->trace->pmem->obj/fs->engine->core");
      }
    }
  }
  // Cycles in the header dependency DAG (include/ files only).
  std::map<std::string, std::vector<std::string>> graph;
  std::map<std::string, int> line_of;
  for (const auto& fp : corpus.files) {
    if (!has_prefix(fp->rel, "include/")) continue;
    for (const Include& inc : includes_of(*fp)) {
      if (!has_prefix(inc.target, "include/")) continue;
      graph[fp->rel].push_back(inc.target);
      line_of[fp->rel + "->" + inc.target] = inc.line;
    }
  }
  std::map<std::string, int> color;  // 0 new, 1 open, 2 done
  std::vector<std::string> stack;
  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const auto& v : graph[u]) {
      if (color[v] == 1) {
        // Found a cycle: v ... u -> v.  Report once, on u's include of v.
        const SourceFile* f = corpus.find(u);
        if (f != nullptr) {
          std::string path = v;
          for (auto it = std::find(stack.begin(), stack.end(), v);
               it != stack.end(); ++it)
            if (*it != v) path += " -> " + *it;
          add_finding(out, "include-layering", *f,
                      line_of[u + "->" + v], v,
                      "header include cycle: " + path + " -> " + v);
        }
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, _] : graph)
    if (color[u] == 0) dfs(u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine plumbing
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {"raw-device",
       "Device::note_write() stays in the device layer, raw() in the "
       "storage layers"},
      {"unregistered-test",
       "every tests/*_test.cpp is registered in tests/CMakeLists.txt"},
      {"container-layering",
       "obj::HashTable / fs::FileSystem are engine implementation details"},
      {"raw-clock", "sim clock reads stay inside the sim/trace layers"},
      {"dropped-result",
       "health-probe verdicts (signature table) are never silently dropped"},
      {"unpersisted-return",
       "storage-layer stores are flushed/fenced/published on every path"},
      {"include-layering",
       "the header DAG respects sim->trace->pmem->obj/fs->engine->core"},
  };
  return kRules;
}

SourceFile& Corpus::add(std::string rel, std::string content) {
  files.push_back(std::make_unique<SourceFile>());
  load_source(*files.back(), std::move(rel), std::move(content));
  return *files.back();
}

const SourceFile* Corpus::find(std::string_view rel) const {
  for (const auto& f : files)
    if (f->rel == rel) return f.get();
  return nullptr;
}

std::vector<Finding> run_rules(const Corpus& corpus) {
  std::vector<Finding> out;
  rule_raw_device(corpus, out);
  rule_unregistered_test(corpus, out);
  rule_container_layering(corpus, out);
  rule_raw_clock(corpus, out);
  rule_dropped_result(corpus, out);
  rule_unpersisted_return(corpus, out);
  rule_include_layering(corpus, out);
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

}  // namespace pmemlint
