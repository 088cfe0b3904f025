// Tests for the hero-lint rule engine (tools/lint): the per-file rules
// through lint_source_report(), and the v3 whole-program rules (call-graph
// reachability, layer DAG, include cycles, stale suppressions) through a
// ProjectIndex fed with in-memory files — exactly what the CLI
// exercises. The only disk fixtures are tests/lint_fixtures/ (a planted
// cross-TU wall-clock that must flip the gate) and the repo's real
// tools/lint/layers.txt (its syntax and acyclicity stay covered here).
#include "callgraph.hpp"
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

TEST(LintTest, FloatEqualityFires) {
  const std::string src = R"cpp(
bool done(double x) { return x == 1.0; }
bool pending(double x) { return 0.5 != x; }
)cpp";
  EXPECT_EQ(count_rule(lint(src), "float-equal"), 2);
}

TEST(LintTest, EpsilonComparisonDoesNotFire) {
  const std::string src = R"cpp(
bool near_one(double x) { return x >= 1.0 - 1e-9 && x <= 1.0 + 1e-9; }
)cpp";
  EXPECT_EQ(count_rule(lint(src), "float-equal"), 0);
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
  const std::string same = R"cpp(
#include <chrono>
auto t = std::chrono::steady_clock::now();  // hero-lint: allow(wall-clock)
)cpp";
  EXPECT_TRUE(lint(same).empty());

  const std::string prev = R"cpp(
#include <chrono>
// hero-lint: allow(wall-clock)
auto t = std::chrono::steady_clock::now();
)cpp";
  EXPECT_TRUE(lint(prev).empty());
}

TEST(LintTest, AllowOfOtherRuleDoesNotSuppress) {
  const std::string src = R"cpp(
#include <chrono>
auto t = std::chrono::steady_clock::now();  // hero-lint: allow(ambient-rng)
)cpp";
  EXPECT_EQ(count_rule(lint(src), "wall-clock"), 1);
}

TEST(LintTest, AllowFileSuppressesRuleFileWide) {
  const std::string src = R"cpp(
// hero-lint: allow-file(float-equal)
bool a(double x) { return x == 1.0; }
bool b(double x) { return x != 2.0; }
)cpp";
  EXPECT_EQ(count_rule(lint(src), "float-equal"), 0);
}

TEST(LintTest, ClassifyPathMatchesRepoConventions) {
  EXPECT_TRUE(herolint::classify_path("src/netsim/flownet.cpp").library);
  EXPECT_TRUE(herolint::classify_path("/root/repo/src/online/policy.cpp")
                  .library);
  EXPECT_FALSE(herolint::classify_path("tests/flownet_test.cpp").library);
  EXPECT_FALSE(herolint::classify_path("examples/quickstart.cpp").library);
  EXPECT_TRUE(herolint::classify_path("src/common/rng.hpp").rng_module);
  EXPECT_FALSE(herolint::classify_path("src/common/format.hpp").rng_module);
}

TEST(LintTest, RuleIdsAreStableAndSorted) {
  const auto& ids = herolint::rule_ids();
  EXPECT_EQ(ids.size(), 13u);
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
bool done(double x) { return x == 1.0; }
)cpp";
  FileContext ctx;
  ctx.library = true;
  const herolint::LintReport report =
      herolint::lint_source_report("fixture.cpp", src, ctx);
  ASSERT_EQ(report.suppressed.size(), 1u);
  EXPECT_EQ(report.suppressed[0].rule, "wall-clock");
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_EQ(report.findings[0].rule, "float-equal");
}

TEST(LintTest, SarifReportIsWellFormed) {
  const std::string src = R"cpp(
bool done(double x) { return x == 1.0; }
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 1u);
  const std::string sarif = herolint::to_sarif(fs);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"float-equal\""), std::string::npos);
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
bool done(double x) { return x == 1.0; }
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 1u);
  const std::string json = herolint::to_json(fs);
  EXPECT_NE(json.find("\"fixture.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"float-equal\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
}

TEST(LintTest, FindingsSortedByLine) {
  const std::string src = R"cpp(
#include <chrono>
bool done(double x) { return x == 1.0; }
auto t = std::chrono::steady_clock::now();
)cpp";
  const auto fs = lint(src);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_LT(fs[0].line, fs[1].line);
  EXPECT_EQ(fs[0].rule, "float-equal");
  EXPECT_EQ(fs[1].rule, "wall-clock");
}

// --- v3 whole-program rules -------------------------------------------

using FileSet = std::vector<std::pair<std::string, std::string>>;

herolint::ProjectIndex make_index(const FileSet& files) {
  herolint::ProjectIndex index;
  for (const auto& [path, content] : files) index.add_file(path, content);
  return index;
}

herolint::LintReport analyze(const FileSet& files,
                             const std::string& layers = "") {
  herolint::ProjectIndex index = make_index(files);
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

TEST(IndexTest, ExtractsFunctionsMethodsAndSpans) {
  herolint::ProjectIndex index = make_index({{"src/netsim/thing.cpp", R"cpp(
namespace hero {

double helper(double x) { return x * 2.0; }

struct Widget {
  void run() {
    helper(1.0);
    owner_->refresh(2.0);
  }
};

void Widget::stop() {
  helper(0.0);
}

}  // namespace hero
)cpp"}});
  const auto& fns = index.functions();
  ASSERT_EQ(fns.size(), 3u);
  EXPECT_EQ(fns[0].display(), "helper");
  EXPECT_EQ(fns[1].display(), "Widget::run");
  EXPECT_EQ(fns[2].display(), "Widget::stop");
  // Line spans cover declarator through closing brace, so body lines map
  // back to their function.
  EXPECT_EQ(index.enclosing_function(0, 8), 1);   // inside Widget::run
  EXPECT_EQ(index.enclosing_function(0, 14), 2);  // inside Widget::stop
  EXPECT_EQ(index.enclosing_function(0, 17), -1);
  // Call sites carry member/qualifier structure.
  ASSERT_EQ(fns[1].calls.size(), 2u);
  EXPECT_EQ(fns[1].calls[0].name, "helper");
  EXPECT_FALSE(fns[1].calls[0].member);
  EXPECT_EQ(fns[1].calls[1].name, "refresh");
  EXPECT_TRUE(fns[1].calls[1].member);
}

TEST(IndexTest, MacroBodiesAreNotFunctions) {
  herolint::ProjectIndex index = make_index({{"src/common/m.hpp", R"cpp(
#define MAKE_THING(name) \
  Thing name() {         \
    return Thing{};      \
  }
int real_fn() { return 1; }
)cpp"}});
  ASSERT_EQ(index.functions().size(), 1u);
  EXPECT_EQ(index.functions()[0].name, "real_fn");
}

TEST(IndexTest, SubsystemOfMatchesRepoLayout) {
  EXPECT_EQ(herolint::subsystem_of("src/netsim/flownet.cpp"), "netsim");
  EXPECT_EQ(herolint::subsystem_of("/root/repo/src/online/policy.hpp"),
            "online");
  EXPECT_EQ(herolint::subsystem_of("tools/lint/lint_core.cpp"), "");
  EXPECT_EQ(herolint::subsystem_of("bench/bench_util.hpp"), "");
}

TEST(CallGraphTest, LinksCallsAcrossTranslationUnits) {
  herolint::ProjectIndex index = make_index({
      {"src/a.cpp", "void caller() { helper_tick(); }\n"},
      {"src/b.hpp", "double helper_tick();\n"},
      {"src/b.cpp", "double helper_tick() { return 1.0; }\n"},
  });
  const herolint::CallGraph graph = herolint::CallGraph::build(index);
  const std::vector<int> callers = index.functions_named("caller");
  const std::vector<int> helpers = index.functions_named("helper_tick");
  ASSERT_EQ(callers.size(), 1u);
  ASSERT_EQ(helpers.size(), 1u);  // the declaration is not a definition
  const auto& out = graph.out[static_cast<std::size_t>(callers[0])];
  EXPECT_NE(std::find(out.begin(), out.end(), helpers[0]), out.end());
}

TEST(CallGraphTest, EntryClassesAreSortedAndRecognized) {
  const auto& classes = herolint::entry_classes();
  EXPECT_TRUE(std::is_sorted(classes.begin(), classes.end()));
  herolint::FunctionDef fn;
  fn.name = "step";
  fn.class_name = "ClusterSim";
  EXPECT_TRUE(herolint::is_entry(fn));
  fn.class_name = "JsonReport";
  EXPECT_FALSE(herolint::is_entry(fn));
  fn.class_name.clear();
  EXPECT_FALSE(herolint::is_entry(fn));
}

TEST(TransitiveTest, WallClockAcrossTuReportsFullChain) {
  const herolint::LintReport report = analyze({
      {"src/core/sim.cpp",
       "struct Simulator {\n"
       "  void run_until() { helper_tick(); }\n"
       "};\n"},
      {"src/common/h.cpp",
       "#include <chrono>\n"
       "double helper_tick() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "  return static_cast<double>(t.time_since_epoch().count());\n"
       "}\n"},
  });
  ASSERT_EQ(count_rule(report.findings, "transitive-wall-clock"), 1);
  const auto it = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.rule == "transitive-wall-clock"; });
  // Reported at the sink, with the entry -> sink chain in the message.
  EXPECT_EQ(it->file, "src/common/h.cpp");
  EXPECT_EQ(it->line, 3);
  EXPECT_NE(it->message.find("reachable from simulator dispatch"),
            std::string::npos);
  EXPECT_NE(it->message.find("Simulator::run_until (src/core/sim.cpp:2)"),
            std::string::npos);
  EXPECT_NE(it->message.find("-> helper_tick (src/common/h.cpp:2)"),
            std::string::npos);
  // The direct finding also fires, in the same report.
  EXPECT_EQ(count_rule(report.findings, "wall-clock"), 1);
}

TEST(TransitiveTest, RngReachableFromDispatchFires) {
  const herolint::LintReport report = analyze({
      {"src/online/sched.cpp",
       "struct OnlineScheduler {\n"
       "  int place() { return jitter(); }\n"
       "};\n"},
      {"src/workload/jit.cpp",
       "#include <cstdlib>\n"
       "int jitter() { return rand(); }\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "transitive-rng"), 1);
}

TEST(TransitiveTest, UnorderedIterReachableFromDispatchFires) {
  const herolint::LintReport report = analyze({
      {"src/core/fleet.cpp",
       "struct FleetSim {\n"
       "  double step() { return drain(); }\n"
       "};\n"},
      {"src/serving/agg.cpp",
       "#include <unordered_map>\n"
       "std::unordered_map<int, double> rates;\n"
       "double drain() {\n"
       "  double s = 0.0;\n"
       "  for (const auto& [k, v] : rates) s += v;\n"
       "  return s;\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "transitive-unordered-iter"), 1);
}

TEST(TransitiveTest, UnreachableSinksDoNotFireTransitively) {
  // All three sink kinds exist, but nothing on the dispatch side calls
  // them: only the direct rules fire.
  const herolint::LintReport report = analyze({
      {"src/core/sim.cpp",
       "struct Simulator {\n"
       "  void run_until() { advance(); }\n"
       "};\n"
       "void advance() {}\n"},
      {"src/common/dead.cpp",
       "#include <chrono>\n"
       "#include <cstdlib>\n"
       "#include <unordered_map>\n"
       "std::unordered_map<int, double> rates;\n"
       "double orphan() {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "  double s = static_cast<double>(rand());\n"
       "  for (const auto& [k, v] : rates) s += v;\n"
       "  return s + static_cast<double>(t.time_since_epoch().count());\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "transitive-wall-clock"), 0);
  EXPECT_EQ(count_rule(report.findings, "transitive-rng"), 0);
  EXPECT_EQ(count_rule(report.findings, "transitive-unordered-iter"), 0);
  EXPECT_EQ(count_rule(report.findings, "wall-clock"), 1);
  EXPECT_EQ(count_rule(report.findings, "ambient-rng"), 1);
  EXPECT_EQ(count_rule(report.findings, "unordered-iter"), 1);
}

TEST(TransitiveTest, StdQualifiedCallsDoNotCreateEdges) {
  // `std::clamp(...)` must not link to a same-named project function
  // containing a sink.
  const herolint::LintReport report = analyze({
      {"src/core/r.cpp",
       "#include <algorithm>\n"
       "struct Router {\n"
       "  int pick() { return std::clamp(1, 0, 2); }\n"
       "};\n"},
      {"src/common/c.cpp",
       "#include <chrono>\n"
       "int clamp(int v, int lo, int hi) {\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "  (void)t;\n"
       "  return v < lo ? lo : (v > hi ? hi : v);\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "transitive-wall-clock"), 0);
}

TEST(TransitiveTest, SuppressedSinkIsStillASink) {
  // A locally allowed wall-clock stays a call-graph sink: the transitive
  // finding needs its own allow(transitive-wall-clock) to be silenced.
  const herolint::LintReport report = analyze({
      {"src/core/sim.cpp",
       "struct Simulator {\n"
       "  void run_until() { helper_tick(); }\n"
       "};\n"},
      {"src/common/h.cpp",
       "#include <chrono>\n"
       "double helper_tick() {\n"
       "  // hero-lint: allow(wall-clock)\n"
       "  auto t = std::chrono::steady_clock::now();\n"
       "  return static_cast<double>(t.time_since_epoch().count());\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(report.findings, "wall-clock"), 0);
  EXPECT_EQ(count_rule(report.suppressed, "wall-clock"), 1);
  EXPECT_EQ(count_rule(report.findings, "transitive-wall-clock"), 1);
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
  const herolint::LintReport report = analyze({{"src/common/x.cpp",
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

TEST(FixtureTest, PlantedCrossTuWallClockFlipsTheGate) {
  const std::string dir = LINT_FIXTURE_DIR;
  const FileSet files = {
      {dir + "/entry_dispatch.cpp", slurp(dir + "/entry_dispatch.cpp")},
      {dir + "/helper_sink.hpp", slurp(dir + "/helper_sink.hpp")},
      {dir + "/helper_sink.cpp", slurp(dir + "/helper_sink.cpp")},
  };
  const herolint::LintReport report = analyze(files);
  // The gate (findings non-empty => exit 1) must flip...
  ASSERT_FALSE(report.findings.empty());
  // ...specifically on the transitive rule: the direct wall-clock is
  // allowed in the fixture, and that allow is used (not stale).
  ASSERT_EQ(count_rule(report.findings, "transitive-wall-clock"), 1);
  EXPECT_EQ(count_rule(report.findings, "wall-clock"), 0);
  EXPECT_EQ(count_rule(report.findings, "stale-suppression"), 0);
  EXPECT_EQ(count_rule(report.suppressed, "wall-clock"), 1);
  const Finding& f = report.findings[0];
  EXPECT_NE(f.message.find("ClusterSim::step"), std::string::npos);
  EXPECT_NE(f.message.find("-> helper_tick"), std::string::npos);
}

TEST(DotTest, GraphDumpsCoverEntriesSinksAndIncludeEdges) {
  herolint::ProjectIndex index = make_index({
      {"src/core/sim.cpp",
       "#include \"h.hpp\"\n"
       "struct Simulator {\n"
       "  void run_until() { helper_tick(); }\n"
       "};\n"},
      {"src/core/h.hpp",
       "#include <chrono>\n"
       "inline double helper_tick() {\n"
       "  return static_cast<double>(\n"
       "      std::chrono::steady_clock::now().time_since_epoch().count());\n"
       "}\n"},
  });
  const std::string calls = herolint::callgraph_dot(index);
  EXPECT_NE(calls.find("digraph herolint_calls"), std::string::npos);
  EXPECT_NE(calls.find("Simulator::run_until"), std::string::npos);
  EXPECT_NE(calls.find("shape=box"), std::string::npos);   // entry
  EXPECT_NE(calls.find("color=red"), std::string::npos);   // sink
  EXPECT_NE(calls.find(" -> "), std::string::npos);

  const std::string incs = herolint::include_dot(index);
  EXPECT_NE(incs.find("digraph herolint_includes"), std::string::npos);
  EXPECT_NE(incs.find("src/core/h.hpp"), std::string::npos);
  EXPECT_NE(incs.find(" -> "), std::string::npos);
}

}  // namespace
