// Tests for the hero-lint rule engine (tools/lint): the per-file rules
// through lint_source_report(), and the project rules (layer DAG, include
// cycles, stale suppressions, the src/ suppression rule) through a
// ProjectIndex fed with in-memory files — exactly what the CLI
// exercises. The only disk fixture is the repo's real
// tools/lint/layers.txt (its syntax and acyclicity stay covered here).
#include "analyze.hpp"
#include "index.hpp"
#include "lint_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using herolint::FileContext;
using herolint::Finding;

std::vector<Finding> lint(const std::string& src, bool library = true,
                          bool rng_module = false) {
  FileContext ctx;
  ctx.library = library;
  ctx.rng_module = rng_module;
  return herolint::lint_source_report("fixture.cpp", src, ctx).findings;
}

int count_rule(const std::vector<Finding>& fs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

TEST(LintTest, CleanFileHasNoFindings) {
  const std::string src = R"cpp(
#include <map>
#include <vector>

struct Stats {
  double mean = 0.0;
  int samples = 0;
};

double total(const std::map<int, double>& m) {
  double sum = 0.0;
  for (const auto& [k, v] : m) sum += v;
  return sum;
}
)cpp";
  EXPECT_TRUE(lint(src).empty());
}

TEST(LintTest, RangeForOverUnorderedContainerFires) {
  const std::string src = R"cpp(
#include <unordered_map>
std::unordered_map<int, double> rates;
double sum() {
  double s = 0.0;
  for (const auto& [id, r] : rates) s += r;
  return s;
}
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(count_rule(fs, "unordered-iter"), 1);
  EXPECT_EQ(fs[0].line, 6);
}

TEST(LintTest, RangeForThroughPointerAndQualifiedDeclFires) {
  const std::string src = R"cpp(
#include <unordered_map>
void sum(std::unordered_map<int, double>* m, double& s) {
  for (auto& [k, v] : *m) s += v;
  for (const std::pair<const int, double>& kv : (*m)) s += kv.second;
}
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(count_rule(fs, "unordered-iter"), 2);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_EQ(fs[1].line, 5);
}

TEST(LintTest, BeginEndOverUnorderedContainerFires) {
  const std::string src = R"cpp(
#include <unordered_set>
std::unordered_set<int> seen;
void drain(std::vector<int>& out) {
  out.assign(seen.begin(), seen.end());
}
)cpp";
  EXPECT_GE(count_rule(lint(src), "unordered-iter"), 1);
}

TEST(LintTest, FindEndSentinelComparisonDoesNotFire) {
  // `it == c.end()` after find() is a membership test, not a traversal.
  const std::string src = R"cpp(
#include <unordered_map>
std::unordered_map<int, int> cache;
bool hit(int k) {
  auto it = cache.find(k);
  if (it == cache.end()) return false;
  return it != cache.end();
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "unordered-iter"), 0);
}

TEST(LintTest, OrderedContainerIterationDoesNotFire) {
  const std::string src = R"cpp(
#include <map>
std::map<int, double> rates;
double sum() {
  double s = 0.0;
  for (const auto& [id, r] : rates) s += r;
  return s;
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "unordered-iter"), 0);
}

TEST(LintTest, WallClockSourcesFire) {
  const std::string src = R"cpp(
#include <chrono>
double now_s() {
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "wall-clock"), 1);
}

TEST(LintTest, AmbientRngFires) {
  const std::string src = R"cpp(
#include <random>
int roll() {
  static std::mt19937 gen{std::random_device{}()};
  return static_cast<int>(gen());
}
)cpp";
  EXPECT_GE(count_rule(lint(src), "ambient-rng"), 2);
}

TEST(LintTest, RngModuleIsExemptFromAmbientRng) {
  const std::string src = R"cpp(
#include <random>
std::mt19937 make_engine(unsigned seed) { return std::mt19937{seed}; }
)cpp";
  EXPECT_EQ(count_rule(lint(src, /*library=*/true, /*rng_module=*/true),
                       "ambient-rng"),
            0);
  EXPECT_GE(count_rule(lint(src), "ambient-rng"), 1);
}

TEST(LintTest, EpsilonComparisonDoesNotFire) {
  const std::string src = R"cpp(
bool near_one(double x) { return x >= 1.0 - 1e-9 && x <= 1.0 + 1e-9; }
)cpp";
  EXPECT_TRUE(lint(src).empty());
}

TEST(LintTest, IostreamOnlyFlaggedInLibraryCode) {
  const std::string src = R"cpp(
#include <iostream>
void hello() {}
)cpp";
  EXPECT_EQ(count_rule(lint(src, /*library=*/true), "iostream"), 1);
  EXPECT_EQ(count_rule(lint(src, /*library=*/false), "iostream"), 0);
}

TEST(LintTest, UninitStructMemberFires) {
  const std::string src = R"cpp(
struct Event {
  double at;
  int id;
  bool cancelled = false;
};
)cpp";
  const auto fs = lint(src);
  EXPECT_EQ(count_rule(fs, "uninit-member"), 2);
}

TEST(LintTest, UninitMemberListAndPointerFire) {
  const std::string src = R"cpp(
struct Span {
  int a, b;
  Node* from;
  std::uint64_t bits = 0;
  doubled;
};
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(count_rule(fs, "uninit-member"), 2);
  EXPECT_NE(fs[0].message.find("'a, b'"), std::string::npos);
  EXPECT_NE(fs[1].message.find("'from'"), std::string::npos);
}

TEST(LintTest, ClassAndEnumMembersAreNotFlagged) {
  // Classes establish invariants in constructors; enum class bodies are
  // not aggregates at all.
  const std::string src = R"cpp(
class Engine {
 public:
  explicit Engine(int n);
 private:
  double rate_;
  int count_;
};
enum class Scheme {
  kRing,
  kInaSync
};
)cpp";
  EXPECT_EQ(count_rule(lint(src), "uninit-member"), 0);
}

TEST(LintTest, TokensInCommentsAndStringsAreMasked) {
  const std::string src = R"cpp(
// steady_clock would be nondeterministic; rand() too.
/* for (auto& x : some_unordered) {} */
const char* kDoc = "uses std::mt19937 and x == 1.0 internally";
)cpp";
  EXPECT_TRUE(lint(src).empty());
}

TEST(LintTest, AllowSuppressesOnSameAndPreviousLine) {
  // Outside src/: under src/ no allow() covers wall-clock (SrcSuppression).
  const std::string same = R"cpp(
#include <chrono>
auto t = std::chrono::steady_clock::now();  // hero-lint: allow(wall-clock)
)cpp";
  EXPECT_TRUE(lint(same, /*library=*/false).empty());

  const std::string prev = R"cpp(
#include <chrono>
// hero-lint: allow(wall-clock)
auto t = std::chrono::steady_clock::now();
)cpp";
  EXPECT_TRUE(lint(prev, /*library=*/false).empty());
}

TEST(LintTest, AllowOfOtherRuleDoesNotSuppress) {
  const std::string src = R"cpp(
#include <chrono>
auto t = std::chrono::steady_clock::now();  // hero-lint: allow(ambient-rng)
)cpp";
  EXPECT_EQ(count_rule(lint(src, /*library=*/false), "wall-clock"), 1);
}

TEST(LintTest, AllowFileSuppressesRuleFileWide) {
  const std::string src = R"cpp(
// hero-lint: allow-file(raw-unit-literal)
Bandwidth a = 12.5e9;
Time b = 1e-6;
)cpp";
  EXPECT_EQ(count_rule(lint(src), "raw-unit-literal"), 0);
}

TEST(LintTest, ClassifyPathMatchesRepoConventions) {
  EXPECT_TRUE(herolint::classify_path("src/netsim/flownet.cpp").library);
  EXPECT_TRUE(herolint::classify_path("/root/repo/src/online/policy.cpp")
                  .library);
  EXPECT_FALSE(herolint::classify_path("tests/flownet_test.cpp").library);
  EXPECT_FALSE(herolint::classify_path("examples/quickstart.cpp").library);
  // The tree directory nearest the file decides, not the first "/src/".
  EXPECT_FALSE(herolint::classify_path("/x/src/demo/bench/a.cpp").library);
  EXPECT_TRUE(herolint::classify_path("/x/src/repo/src/serving/a.cpp")
                  .library);
  EXPECT_TRUE(herolint::classify_path("src/common/rng.hpp").rng_module);
  EXPECT_FALSE(herolint::classify_path("src/common/format.hpp").rng_module);
}

TEST(LintTest, RuleIdsAreStableAndSorted) {
  const auto& ids = herolint::rule_ids();
  EXPECT_EQ(ids.size(), 9u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (const std::string& id : ids) {
    EXPECT_FALSE(herolint::rule_summary(id).empty()) << id;
  }
  EXPECT_TRUE(herolint::rule_summary("no-such-rule").empty());
}

// --- v2 token rule ----------------------------------------------------

TEST(LintTest, RawUnitLiteralFiresOnConversionFactorShapedInit) {
  const std::string src = R"cpp(
#include "common/units.hpp"
void f() {
  hero::Bandwidth bw = 12.5e9;
  hero::Bytes chunk = 4096.0;
}
)cpp";
  const auto fs = lint(src);
  EXPECT_EQ(count_rule(fs, "raw-unit-literal"), 2);
}

TEST(LintTest, RawUnitLiteralAcceptsUnitsSpellingAndHumanScale) {
  const std::string src = R"cpp(
#include "common/units.hpp"
void f() {
  hero::Bandwidth bw = 100.0 * units::Gbps;
  hero::Time sla = 2.5;
  hero::Time zero = 0.0;
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "raw-unit-literal"), 0);
}

TEST(LintTest, RawUnitLiteralFiresOnAssignmentToo) {
  const std::string src = R"cpp(
void f() {
  Time deadline = 0.0;
  deadline = 3600.0;
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "raw-unit-literal"), 1);
}

TEST(LintTest, RawUnitLiteralIgnoresNonUnitTypes) {
  const std::string src = R"cpp(
void f() {
  double scale = 1e9;
  std::size_t tokens = 16384;
}
)cpp";
  EXPECT_EQ(count_rule(lint(src), "raw-unit-literal"), 0);
}

TEST(LintTest, SuppressedFindingsLandInReport) {
  const std::string src = R"cpp(
#include <chrono>
auto t = std::chrono::steady_clock::now();  // hero-lint: allow(wall-clock)
Bandwidth bw = 12.5e9;
)cpp";
  FileContext ctx;  // outside src/, so the wall-clock allow() applies
  const herolint::LintReport report =
      herolint::lint_source_report("fixture.cpp", src, ctx);
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].rule, "wall-clock");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "raw-unit-literal");
}

TEST(LintTest, SarifReportIsWellFormed) {
  const std::string src = R"cpp(
Bandwidth bw = 12.5e9;
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 1u);
  const std::string sarif = herolint::to_sarif(fs);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"raw-unit-literal\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 2"), std::string::npos);
  EXPECT_NE(sarif.find("fixture.cpp"), std::string::npos);
  // The driver rules table documents every rule id.
  for (const std::string& id : herolint::rule_ids()) {
    EXPECT_NE(sarif.find("\"id\": \"" + id + "\""), std::string::npos) << id;
  }
}

TEST(LintTest, SarifEmptyFindingsIsStillARun) {
  const std::string sarif = herolint::to_sarif({});
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

TEST(LintTest, JsonReportContainsFindings) {
  const std::string src = R"cpp(
Bandwidth bw = 12.5e9;
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 1u);
  const std::string json = herolint::to_json(fs);
  EXPECT_NE(json.find("\"fixture.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"raw-unit-literal\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
}

TEST(LintTest, FindingsSortedByLine) {
  const std::string src = R"cpp(
#include <chrono>
Bandwidth bw = 12.5e9;
auto t = std::chrono::steady_clock::now();
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_LT(fs[0].line, fs[1].line);
  EXPECT_EQ(fs[0].rule, "raw-unit-literal");
  EXPECT_EQ(fs[1].rule, "wall-clock");
}

// --- project rules ----------------------------------------------------

using FileSet = std::vector<std::pair<std::string, std::string>>;

herolint::LintReport analyze(const FileSet& files,
                             const std::string& layers = "") {
  herolint::ProjectIndex index;
  for (const auto& [path, content] : files) index.add_file(path, content);
  herolint::AnalyzeOptions opts;
  opts.layers_text = layers;
  opts.layers_path = "layers.txt";
  return herolint::analyze_project(index, opts);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(IndexTest, SubsystemOfMatchesRepoLayout) {
  EXPECT_EQ(herolint::subsystem_of("src/netsim/flownet.cpp"), "netsim");
  EXPECT_EQ(herolint::subsystem_of("/root/repo/src/online/policy.hpp"),
            "online");
  EXPECT_EQ(herolint::subsystem_of("tools/lint/lint_core.cpp"), "");
  EXPECT_EQ(herolint::subsystem_of("bench/bench_util.hpp"), "");
  EXPECT_EQ(herolint::subsystem_of("/x/src/demo/bench/a.cpp"), "");
  EXPECT_EQ(herolint::subsystem_of("/x/src/repo/src/serving/a.cpp"),
            "serving");
}

TEST(IndexTest, RelativeIncludesCollapseDotDot) {
  EXPECT_EQ(herolint::relative_to("src/serving/x.cpp", "../../bench/u.hpp"),
            "bench/u.hpp");
  EXPECT_EQ(herolint::relative_to("src/serving/x.cpp", "../common/u.hpp"),
            "src/common/u.hpp");
  EXPECT_EQ(herolint::relative_to("src/common/a.hpp", "b.hpp"),
            "src/common/b.hpp");
}

// --- src/ suppression rule: determinism sinks under src/ cannot be allowed

constexpr const char* kAllowedWallClock =
    "#include <chrono>\n"
    "double tick() {\n"
    "  // hero-lint: allow(wall-clock)\n"
    "  auto t = std::chrono::steady_clock::now();\n"
    "  return static_cast<double>(t.time_since_epoch().count());\n"
    "}\n";

constexpr const char* kAllowedUnorderedIter =
    "#include <unordered_map>\n"
    "std::unordered_map<int, double> rates;\n"
    "double drain() {\n"
    "  double s = 0.0;\n"
    "  for (const auto& [k, v] : rates) s += v;  "
    "// hero-lint: allow(unordered-iter)\n"
    "  return s;\n"
    "}\n";

TEST(SrcSuppressionTest, AllowedWallClockFailsUnderSrcPassesUnderBench) {
  const herolint::LintReport src =
      analyze({{"src/common/tick.cpp", kAllowedWallClock}});
  // The sink still fires, and the allow() that suppressed nothing is
  // reported as stale (findings sort by line).
  ASSERT_EQ(src.findings.size(), 2u);
  EXPECT_EQ(src.findings[0].rule, "stale-suppression");
  EXPECT_EQ(src.findings[0].line, 3);
  EXPECT_EQ(src.findings[1].rule, "wall-clock");
  EXPECT_EQ(src.findings[1].line, 4);
  EXPECT_TRUE(src.suppressed.empty());

  const herolint::LintReport bench =
      analyze({{"bench/tick.cpp", kAllowedWallClock}});
  EXPECT_TRUE(bench.findings.empty());
  EXPECT_EQ(count_rule(bench.suppressed, "wall-clock"), 1);
}

TEST(SrcSuppressionTest, AllowedUnorderedIterFailsUnderSrcPassesUnderBench) {
  const herolint::LintReport src =
      analyze({{"src/serving/agg.cpp", kAllowedUnorderedIter}});
  EXPECT_EQ(count_rule(src.findings, "unordered-iter"), 1);
  EXPECT_EQ(count_rule(src.findings, "stale-suppression"), 1);

  const herolint::LintReport bench =
      analyze({{"bench/agg.cpp", kAllowedUnorderedIter}});
  EXPECT_TRUE(bench.findings.empty());
  EXPECT_EQ(count_rule(bench.suppressed, "unordered-iter"), 1);
}

TEST(SrcSuppressionTest, AllowFileCannotCoverAmbientRngUnderSrc) {
  const std::string text =
      "// hero-lint: allow-file(ambient-rng)\n"
      "#include <cstdlib>\n"
      "int jitter() { return rand(); }\n";
  const herolint::LintReport src =
      analyze({{"src/workload/jit.cpp", text}});
  EXPECT_EQ(count_rule(src.findings, "ambient-rng"), 1);
  EXPECT_EQ(count_rule(src.findings, "stale-suppression"), 1);
  EXPECT_TRUE(analyze({{"examples/jit.cpp", text}}).findings.empty());
}

TEST(SrcSuppressionTest, OtherRulesStaySuppressibleUnderSrc) {
  const herolint::LintReport report = analyze(
      {{"src/common/x.cpp",
        "Bandwidth bw = 12.5e9;  // hero-lint: allow(raw-unit-literal)\n"}});
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(count_rule(report.suppressed, "raw-unit-literal"), 1);
}

TEST(LayerTest, UndeclaredEdgeFires) {
  const std::string layers =
      "common:\nnetsim: common\ncollectives: common\n";
  const herolint::LintReport report = analyze(
      {{"src/collectives/engine.hpp", "#include \"netsim/flownet.hpp\"\n"},
       {"src/netsim/flownet.hpp", ""}},
      layers);
  ASSERT_EQ(count_rule(report.findings, "layer-violation"), 1);
  EXPECT_EQ(report.findings[0].file, "src/collectives/engine.hpp");
  EXPECT_EQ(report.findings[0].line, 1);
  EXPECT_NE(report.findings[0].message.find("collectives -> netsim"),
            std::string::npos);
}

TEST(LayerTest, IncludeLeavingSrcFires) {
  const std::string layers = "common:\nserving: common\n";
  for (const char* inc : {"bench/util.hpp", "../../bench/util.hpp"}) {
    const FileSet files = {
        {"src/serving/x.cpp", std::string("#include \"") + inc + "\"\n"},
        {"bench/util.hpp", ""}};
    for (const std::string& text : {layers, std::string()}) {
      const herolint::LintReport report = analyze(files, text);
      ASSERT_EQ(count_rule(report.findings, "layer-violation"), 1) << inc;
      EXPECT_EQ(report.findings[0].file, "src/serving/x.cpp");
      EXPECT_NE(report.findings[0].message.find("leaves src/"),
                std::string::npos);
    }
  }
  // A partial scan that never indexed bench/ still sees a relative
  // include leave src/.
  const herolint::LintReport partial = analyze(
      {{"src/serving/x.cpp", "#include \"../../bench/util.hpp\"\n"}},
      layers);
  EXPECT_EQ(count_rule(partial.findings, "layer-violation"), 1);
  // Drivers outside src/ may include anything.
  EXPECT_EQ(count_rule(analyze({{"bench/b.cpp",
                                 "#include \"src/serving/x.hpp\"\n"},
                                {"src/serving/x.hpp", ""}},
                               layers)
                           .findings,
                       "layer-violation"),
            0);
}

TEST(LayerTest, DeclaredEdgeDoesNotFire) {
  const std::string layers =
      "common:\nnetsim: common\ncollectives: common netsim\n";
  const herolint::LintReport report = analyze(
      {{"src/collectives/engine.hpp", "#include \"netsim/flownet.hpp\"\n"},
       {"src/netsim/flownet.hpp", ""}},
      layers);
  EXPECT_EQ(count_rule(report.findings, "layer-violation"), 0);
}

TEST(LayerTest, SpecParseReportsMalformedAndCyclicGraphs) {
  const herolint::LayerSpec bad = herolint::LayerSpec::parse(
      "common\n"          // no colon
      "a: zzz\n"          // undeclared dep
      "a: common\n");     // duplicate subsystem
  EXPECT_EQ(bad.errors.size(), 3u);

  const herolint::LayerSpec cyclic =
      herolint::LayerSpec::parse("a: b\nb: a\n");
  EXPECT_TRUE(cyclic.errors.empty());
  EXPECT_FALSE(cyclic.cycle.empty());

  const herolint::LayerSpec good =
      herolint::LayerSpec::parse("# comment\ncommon:\nobs: common\n");
  EXPECT_TRUE(good.errors.empty());
  EXPECT_TRUE(good.cycle.empty());
  EXPECT_TRUE(good.declared("obs"));
  EXPECT_FALSE(good.declared("gpusim"));
}

TEST(LayerTest, RepoLayersFileIsWellFormedAndAcyclic) {
  const herolint::LayerSpec spec =
      herolint::LayerSpec::parse(slurp(LINT_LAYERS_FILE));
  EXPECT_TRUE(spec.errors.empty());
  EXPECT_TRUE(spec.cycle.empty());
  for (const char* sub : {"common", "netsim", "collectives", "online",
                          "planner", "serving", "core"}) {
    EXPECT_TRUE(spec.declared(sub)) << sub;
  }
}

TEST(LayerTest, DeletingAnEdgeFromRepoLayersFlipsTheGate) {
  // The repo DAG allows collectives -> netsim; cut that edge from the
  // real file's text and the same include becomes a violation.
  const FileSet files = {
      {"src/collectives/engine.hpp", "#include \"netsim/flownet.hpp\"\n"},
      {"src/netsim/flownet.hpp", ""}};
  const std::string full = slurp(LINT_LAYERS_FILE);
  EXPECT_EQ(count_rule(analyze(files, full).findings, "layer-violation"),
            0);

  std::istringstream in(full);
  std::string line, cut;
  while (std::getline(in, line)) {
    if (line.rfind("collectives:", 0) == 0) {
      std::size_t pos = line.find(" netsim");
      ASSERT_NE(pos, std::string::npos);
      line.erase(pos, 7);
    }
    cut += line + "\n";
  }
  EXPECT_EQ(count_rule(analyze(files, cut).findings, "layer-violation"),
            1);
}

TEST(IncludeCycleTest, MutualHeadersFireOnce) {
  const herolint::LintReport report = analyze({
      {"src/common/a.hpp", "#pragma once\n#include \"b.hpp\"\n"},
      {"src/common/b.hpp", "#pragma once\n#include \"a.hpp\"\n"},
  });
  ASSERT_EQ(count_rule(report.findings, "include-cycle"), 1);
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == "include-cycle"; });
  EXPECT_NE(it->message.find("src/common/a.hpp"), std::string::npos);
  EXPECT_NE(it->message.find("src/common/b.hpp"), std::string::npos);
}

TEST(IncludeCycleTest, SpacedDirectivesAreEdges) {
  const herolint::LintReport report = analyze({
      {"src/common/a.hpp", "#  include \"b.hpp\"\n"},
      {"src/common/b.hpp", "\t#include\"a.hpp\"  // back edge\n"},
      {"src/common/c.hpp", "// #include \"a.hpp\"\n#include <a.hpp>\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "include-cycle"), 1);
}

TEST(IncludeCycleTest, AcyclicChainDoesNotFire) {
  const herolint::LintReport report = analyze({
      {"src/common/a.hpp", "#include \"b.hpp\"\n"},
      {"src/common/b.hpp", "#include \"c.hpp\"\n"},
      {"src/common/c.hpp", ""},
  });
  EXPECT_EQ(count_rule(report.findings, "include-cycle"), 0);
}

TEST(StaleTest, UnusedAllowFires) {
  const herolint::LintReport report = analyze({{"src/common/x.cpp",
                                                R"cpp(
// hero-lint: allow(wall-clock)
double f() { return 1.0; }
)cpp"}});
  ASSERT_EQ(count_rule(report.findings, "stale-suppression"), 1);
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_NE(report.findings[0].message.find("allow(wall-clock)"),
            std::string::npos);
}

TEST(StaleTest, UnknownRuleIsCalledOut) {
  const herolint::LintReport report = analyze(
      {{"src/common/x.cpp", "// hero-lint: allow(wallclock)\n"}});
  ASSERT_EQ(count_rule(report.findings, "stale-suppression"), 1);
  EXPECT_NE(report.findings[0].message.find("unknown rule 'wallclock'"),
            std::string::npos);
}

TEST(StaleTest, UsedAllowDoesNotFire) {
  const herolint::LintReport report = analyze({{"bench/x.cpp",
                                                R"cpp(
#include <chrono>
// hero-lint: allow(wall-clock)
auto t = std::chrono::steady_clock::now();
)cpp"}});
  EXPECT_EQ(count_rule(report.findings, "stale-suppression"), 0);
  EXPECT_EQ(count_rule(report.suppressed, "wall-clock"), 1);
}

TEST(StaleTest, ProseMentionOfSyntaxIsNotASite) {
  // Docs quoting the `hero-lint: allow(...)` syntax mid-sentence are not
  // suppression sites, so they can never rot.
  const herolint::LintReport report = analyze(
      {{"src/common/x.cpp",
        "// Suppress with a `hero-lint: allow(wall-clock)` comment.\n"}});
  EXPECT_EQ(count_rule(report.findings, "stale-suppression"), 0);
}

}  // namespace
