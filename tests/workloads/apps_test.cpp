#include "workloads/apps.h"

#include <gtest/gtest.h>

#include "region/sharing.h"
#include "taskgraph/validate.h"
#include "util/error.h"

namespace laps {
namespace {

std::string appName(const ::testing::TestParamInfo<std::size_t>& info) {
  static const char* kNames[] = {"MedIm04", "MxM",   "Radar",
                                 "Shape",   "Track", "Usonic"};
  return kNames[info.param];
}

class EveryApp : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<Application>& suite() {
    static const std::vector<Application> kSuite = standardSuite();
    return kSuite;
  }
  const Application& app() const { return suite()[GetParam()]; }
};

TEST_P(EveryApp, IsWellFormed) {
  EXPECT_NO_THROW(validateWorkload(app().workload));
}

TEST_P(EveryApp, ProcessCountInPaperRange) {
  // Paper §4: "the numbers of processes of these benchmarks vary
  // between 9 and 37".
  EXPECT_GE(app().processCount(), 9u);
  EXPECT_LE(app().processCount(), 37u);
}

TEST_P(EveryApp, GraphIsConnectedPipeline) {
  // Every app has dependences (stages) and at least one root.
  EXPECT_GT(app().workload.graph.edgeCount(), 0u);
  EXPECT_FALSE(app().workload.graph.roots().empty());
  EXPECT_TRUE(app().workload.graph.isAcyclic());
}

TEST_P(EveryApp, HasIntraTaskSharing) {
  // The locality scheduler is pointless without data sharing; every app
  // must have at least one sharing pair of processes.
  const auto fps = app().workload.footprints();
  const SharingMatrix m = SharingMatrix::compute(fps);
  bool shares = false;
  for (std::size_t p = 0; p < m.size() && !shares; ++p) {
    for (std::size_t q = p + 1; q < m.size() && !shares; ++q) {
      shares = m.at(p, q) > 0;
    }
  }
  EXPECT_TRUE(shares) << app().name;
}

TEST_P(EveryApp, SingleTaskId) {
  EXPECT_EQ(app().workload.graph.tasks(), std::vector<TaskId>{0});
}

TEST_P(EveryApp, DeterministicGeneration) {
  const Application again = [&] {
    switch (GetParam()) {
      case 0: return makeMedIm04();
      case 1: return makeMxM();
      case 2: return makeRadar();
      case 3: return makeShape();
      case 4: return makeTrack();
      default: return GetParam() == 4 ? makeTrack() : makeUsonic();
    }
  }();
  EXPECT_EQ(again.processCount(), app().processCount());
  EXPECT_EQ(again.workload.graph.edgeCount(), app().workload.graph.edgeCount());
  EXPECT_EQ(again.workload.arrays.size(), app().workload.arrays.size());
}

TEST_P(EveryApp, TraceLengthIsLaptopScale) {
  // Keep per-app reference counts in a range where full-suite benches
  // finish in seconds: 50k..2M references.
  std::int64_t totalRefs = 0;
  for (const auto& p : app().workload.graph.processes()) {
    totalRefs += p.totalReferences();
  }
  EXPECT_GE(totalRefs, 50'000) << app().name;
  EXPECT_LE(totalRefs, 2'000'000) << app().name;
}

TEST_P(EveryApp, ScaleParameterShrinksAndGrows) {
  AppParams small;
  small.scale = 0.5;
  AppParams big;
  big.scale = 2.0;
  const auto makeAt = [&](const AppParams& p) {
    switch (GetParam()) {
      case 0: return makeMedIm04(p);
      case 1: return makeMxM(p);
      case 2: return makeRadar(p);
      case 3: return makeShape(p);
      case 4: return makeTrack(p);
      default: return makeUsonic(p);
    }
  };
  const Application tiny = makeAt(small);
  const Application large = makeAt(big);
  EXPECT_NO_THROW(validateWorkload(tiny.workload));
  EXPECT_NO_THROW(validateWorkload(large.workload));
  const auto refsOf = [](const Application& a) {
    std::int64_t total = 0;
    for (const auto& p : a.workload.graph.processes()) {
      total += p.totalReferences();
    }
    return total;
  };
  // Scaling down may clamp at the minimum problem size (e.g. MxM's n is
  // already at the floor), so only require non-growth.
  EXPECT_LE(refsOf(tiny), refsOf(app()));
  EXPECT_GT(refsOf(large), refsOf(app()));
  // Process structure (counts) must not depend on scale.
  EXPECT_EQ(tiny.processCount(), app().processCount());
  EXPECT_EQ(large.processCount(), app().processCount());
}

INSTANTIATE_TEST_SUITE_P(Suite, EveryApp, ::testing::Range<std::size_t>(0, 6),
                         appName);

TEST(StandardSuite, TableOneOrderAndNames) {
  const auto suite = standardSuite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].name, "Med-Im04");
  EXPECT_EQ(suite[1].name, "MxM");
  EXPECT_EQ(suite[2].name, "Radar");
  EXPECT_EQ(suite[3].name, "Shape");
  EXPECT_EQ(suite[4].name, "Track");
  EXPECT_EQ(suite[5].name, "Usonic");
  for (const auto& app : suite) {
    EXPECT_FALSE(app.description.empty());
  }
}

TEST(StandardSuite, CoversPaperProcessRangeEndpoints) {
  const auto suite = standardSuite();
  std::size_t minProcs = 1000;
  std::size_t maxProcs = 0;
  for (const auto& app : suite) {
    minProcs = std::min(minProcs, app.processCount());
    maxProcs = std::max(maxProcs, app.processCount());
  }
  EXPECT_EQ(minProcs, 9u);   // Shape
  EXPECT_EQ(maxProcs, 37u);  // Usonic
}

TEST(ConcurrentScenario, MergesWithoutCrossSharing) {
  const auto suite = standardSuite();
  const Workload two = concurrentScenario(suite, 2);
  EXPECT_EQ(two.graph.processCount(),
            suite[0].processCount() + suite[1].processCount());
  EXPECT_EQ(two.graph.tasks().size(), 2u);
  EXPECT_NO_THROW(validateWorkload(two));

  // No data sharing across the two applications.
  const auto fps = two.footprints();
  const SharingMatrix m = SharingMatrix::compute(fps);
  const std::size_t n0 = suite[0].processCount();
  for (std::size_t p = 0; p < n0; ++p) {
    for (std::size_t q = n0; q < two.graph.processCount(); ++q) {
      ASSERT_EQ(m.at(p, q), 0) << "cross-app sharing " << p << "," << q;
    }
  }
}

TEST(ConcurrentScenario, GrowsMonotonically) {
  const auto suite = standardSuite();
  std::size_t prev = 0;
  for (std::size_t t = 1; t <= 6; ++t) {
    const Workload mix = concurrentScenario(suite, t);
    EXPECT_GT(mix.graph.processCount(), prev);
    prev = mix.graph.processCount();
  }
  // |T| = 6 runs the whole suite: 37+36+33+9+13+37 = 165 processes.
  EXPECT_EQ(prev, 165u);
}

TEST(ConcurrentScenario, CountValidation) {
  const auto suite = standardSuite();
  EXPECT_THROW((void)concurrentScenario(suite, 0), Error);
  EXPECT_THROW((void)concurrentScenario({}, 1), Error);
}

TEST(ConcurrentScenario, CountsBeyondSuiteSizeCycle) {
  // The |T| axis extends past the suite by cycling through it with fully
  // independent application instances.
  const auto suite = standardSuite();
  const Workload mix = concurrentScenario(suite, 8);  // 6 apps + MedIm + MxM
  const Workload six = concurrentScenario(suite, 6);
  EXPECT_EQ(mix.graph.processCount(),
            six.graph.processCount() + suite[0].processCount() +
                suite[1].processCount());
  EXPECT_EQ(mix.graph.tasks().size(), 8u);
  // No accidental sharing between the original and the cycled copies.
  const SharingMatrix sharing = SharingMatrix::compute(mix.footprints());
  const auto firstMedIm = mix.graph.processesOfTask(mix.graph.tasks()[0]);
  const auto secondMedIm = mix.graph.processesOfTask(mix.graph.tasks()[6]);
  for (const ProcessId a : firstMedIm) {
    for (const ProcessId b : secondMedIm) {
      EXPECT_EQ(sharing.at(a, b), 0);
    }
  }
}

}  // namespace
}  // namespace laps
