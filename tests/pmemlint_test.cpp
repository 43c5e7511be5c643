// pmemlint self-tests (tier 1).
//
// Three layers of coverage:
//   1. Golden fixture corpus — tools/pmemlint/fixtures/tree is a miniature
//      repo of known-good/known-bad snippets; the findings must equal
//      fixtures/expected.txt exactly (as a rule/file/line set), proving both
//      detection and false-positive immunity (the good files embed every
//      forbidden pattern inside comments and strings).
//   2. Mutation self-tests — for each rule, plant the violation in an
//      in-memory copy of a *real* source file and assert pmemlint reports
//      exactly that finding (rule, file, line), including the chained-call
//      dropped-result class the historical grep rule provably missed.
//   3. Whole-tree gate — the actual repo must come up clean under the
//      checked-in baseline, and every baseline entry must still be used.
#include "pmemlint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace stdfs = std::filesystem;
using pmemlint::Corpus;
using pmemlint::Finding;

namespace {

stdfs::path repo_root() { return stdfs::path(PMEMLINT_SOURCE_DIR); }

std::string slurp(const stdfs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing file: " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool source_ext(const stdfs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".hpp" || e == ".h" || e == ".c" || e == ".cc";
}

/// Load a tree the same way the CLI does (src include bench examples tests
/// under @p root, plus tests/CMakeLists.txt).
Corpus load_tree(const stdfs::path& root) {
  Corpus c;
  for (const char* sub : {"src", "include", "bench", "examples", "tests"}) {
    const stdfs::path dir = root / sub;
    std::error_code ec;
    if (!stdfs::is_directory(dir, ec)) continue;
    std::vector<stdfs::path> files;
    for (const auto& ent : stdfs::recursive_directory_iterator(dir))
      if (ent.is_regular_file() && source_ext(ent.path()))
        files.push_back(ent.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files)
      c.add(f.lexically_relative(root).generic_string(), slurp(f));
  }
  std::error_code ec;
  if (stdfs::is_regular_file(root / "tests" / "CMakeLists.txt", ec))
    c.tests_cmake = slurp(root / "tests" / "CMakeLists.txt");
  return c;
}

std::set<std::string> finding_keys(const std::vector<Finding>& fs) {
  std::set<std::string> out;
  for (const auto& f : fs)
    out.insert(f.rule + " " + f.file + " " + std::to_string(f.line));
  return out;
}

/// Append planted code to @p content; returns the 1-based line number of the
/// first line of @p code.
int plant(std::string& content, const std::string& code) {
  if (content.empty() || content.back() != '\n') content += '\n';
  int lines = 0;
  for (char ch : content)
    if (ch == '\n') ++lines;
  content += code;
  return lines + 1;
}

/// Run the rules over @p c, drop baselined findings (the real files used as
/// mutation hosts legitimately carry baselined deferred-persist findings).
std::vector<Finding> live_findings(const Corpus& c) {
  std::vector<Finding> fs = pmemlint::run_rules(c);
  auto baseline = pmemlint::parse_baseline(
      slurp(repo_root() / "tools" / "pmemlint" / "baseline.txt"));
  pmemlint::apply_baseline(fs, baseline);
  std::vector<Finding> live;
  for (auto& f : fs)
    if (!f.baselined) live.push_back(std::move(f));
  return live;
}

/// Expect exactly one live finding with the given rule/file/line.
void expect_single(const std::vector<Finding>& live, const std::string& rule,
                   const std::string& file, int line) {
  ASSERT_EQ(live.size(), 1u) << pmemlint::to_human(live);
  EXPECT_EQ(live[0].rule, rule);
  EXPECT_EQ(live[0].file, file);
  EXPECT_EQ(live[0].line, line);
}

// ---------------------------------------------------------------------------
// 1. Golden fixture corpus
// ---------------------------------------------------------------------------

TEST(PmemlintFixtures, GoldenCorpusMatchesExpected) {
  const stdfs::path fixtures = repo_root() / "tools" / "pmemlint" / "fixtures";
  Corpus c = load_tree(fixtures / "tree");
  ASSERT_FALSE(c.files.empty());
  const std::set<std::string> got = finding_keys(pmemlint::run_rules(c));

  std::set<std::string> want;
  std::istringstream in(slurp(fixtures / "expected.txt"));
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string rule, file, ln;
    if (fields >> rule >> file >> ln) want.insert(rule + " " + file + " " + ln);
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// 2. Mutation self-tests (one per rule, planted into real sources)
// ---------------------------------------------------------------------------

TEST(PmemlintMutations, RawDeviceInCore) {
  const std::string rel = "src/core/hyperslab.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Dev>\n"
                       "void planted_copy(Dev& d) {\n"
                       "  d.note_write(0, 64);\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "raw-device", rel, at + 2);
}

// The pool stores through the device's DAX calls, so even a persisted
// note_write() in the obj layer bypasses the device's access rules.
TEST(PmemlintMutations, RawDeviceNoteWriteInObjLayer) {
  const std::string rel = "src/pmemobj/pool.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Dev>\n"
                       "void planted_mark(Dev& d) {\n"
                       "  d.note_write(0, 16);\n"
                       "  d.persist(0, 16);\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "raw-device", rel, at + 2);
}

TEST(PmemlintMutations, UnregisteredTest) {
  Corpus c;
  c.tests_cmake = slurp(repo_root() / "tests" / "CMakeLists.txt");
  c.add("tests/planted_orphan_test.cpp",
        "#include <gtest/gtest.h>\n"
        "TEST(Planted, Orphan) { EXPECT_TRUE(true); }\n");
  expect_single(live_findings(c), "unregistered-test",
                "tests/planted_orphan_test.cpp", 1);
}

TEST(PmemlintMutations, ContainerTypeInTraceLayer) {
  const std::string rel = "src/trace/trace.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at =
      plant(content, "void planted_touch(pmemcpy::obj::HashTable* t);\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "container-layering", rel, at);
}

TEST(PmemlintMutations, RawClockInCore) {
  const std::string rel = "src/core/hyperslab.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Ctx>\n"
                       "double planted_stamp(Ctx& c) {\n"
                       "  return c.now();\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "raw-clock", rel, at + 2);
}

// The exact escape class scripts/lint.sh rule 5 missed: a probe called on a
// chained/temporary receiver is not at line start, so the anchored regex
// never saw it.  The structural rule must.
TEST(PmemlintMutations, DroppedResultThroughChainedReceiver) {
  const std::string rel = "src/engine/tree_engine.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Pending>\n"
                       "void planted_finalize(Pending& p) {\n"
                       "  p.mapping().publish(0, 64);\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "dropped-result", rel, at + 2);
}

TEST(PmemlintMutations, DroppedResultMultiLineReceiver) {
  const std::string rel = "src/engine/tree_engine.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Node>\n"
                       "void planted_probe(Node& n) {\n"
                       "  n.pool()\n"
                       "      .check();\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "dropped-result", rel, at + 3);
}

TEST(PmemlintMutations, UnpersistedReturnInObjLayer) {
  const std::string rel = "src/pmemobj/pool.cpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content,
                       "template <typename Dev>\n"
                       "void planted_put(Dev& d, bool early) {\n"
                       "  d.store(0, nullptr, 8);\n"
                       "  if (early) return;\n"
                       "  d.persist(0, 8);\n"
                       "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "unpersisted-return", rel, at + 2);
}

TEST(PmemlintMutations, AtomicStoreIsNotAPmemStore) {
  // `x.store(v, std::memory_order_*)` is DRAM state, not a pmem write: a
  // function whose only "store" is an atomic flag flip must stay clean.
  const std::string rel = "src/pmemobj/pool.cpp";
  std::string content = slurp(repo_root() / rel);
  plant(content,
        "void planted_arm(std::atomic<bool>& a, bool on) {\n"
        "  if (on) a.store(true, std::memory_order_release);\n"
        "}\n");
  Corpus c;
  c.add(rel, std::move(content));
  const auto live = live_findings(c);
  EXPECT_TRUE(live.empty()) << pmemlint::to_human(live);
}

TEST(PmemlintMutations, IncludeLayeringInversion) {
  const std::string rel = "include/pmemcpy/sim/context.hpp";
  std::string content = slurp(repo_root() / rel);
  const int at = plant(content, "#include <pmemcpy/engine/engine.hpp>\n");
  Corpus c;
  c.add(rel, std::move(content));
  expect_single(live_findings(c), "include-layering", rel, at);
}

// ---------------------------------------------------------------------------
// 3. Whole-tree gate + baseline hygiene
// ---------------------------------------------------------------------------

TEST(PmemlintTree, RepoIsCleanUnderBaseline) {
  Corpus c = load_tree(repo_root());
  ASSERT_GT(c.files.size(), 50u);  // sanity: the real tree was loaded
  std::vector<Finding> fs = pmemlint::run_rules(c);
  auto baseline = pmemlint::parse_baseline(
      slurp(repo_root() / "tools" / "pmemlint" / "baseline.txt"));
  const std::size_t live = pmemlint::apply_baseline(fs, baseline);
  EXPECT_EQ(live, 0u) << pmemlint::to_human(fs);
  for (const auto& e : baseline)
    EXPECT_TRUE(e.used) << "stale baseline entry: " << e.rule << " " << e.file
                        << " " << e.context;
}

TEST(PmemlintBaseline, StaleEntriesAreDetected) {
  auto baseline =
      pmemlint::parse_baseline("# comment\nraw-clock src/nope.cpp fn\n");
  ASSERT_EQ(baseline.size(), 1u);
  std::vector<Finding> none;
  EXPECT_EQ(pmemlint::apply_baseline(none, baseline), 0u);
  EXPECT_FALSE(baseline[0].used);
}

}  // namespace
