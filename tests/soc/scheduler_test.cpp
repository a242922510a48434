#include "soc/scheduler.hpp"

#include <gtest/gtest.h>

#include <set>

#include "soc/opp.hpp"
#include "soc/power_model.hpp"

namespace pmrl::soc {
namespace {

// Two clusters: 0 = little (2 cores), 1 = big (2 cores).
std::vector<Cluster> make_clusters() {
  std::vector<Cluster> clusters;
  clusters.emplace_back(
      0,
      ClusterConfig{"little", CoreType::Little, 2, 0.5, 0.0,
                    static_cast<std::size_t>(-1)},
      little_cluster_opps(), little_core_power_params());
  clusters.emplace_back(
      1,
      ClusterConfig{"big", CoreType::Big, 2, 1.0, 0.0,
                    static_cast<std::size_t>(-1)},
      big_cluster_opps(), big_core_power_params());
  return clusters;
}

Job make_job(JobId id, double work) {
  Job job;
  job.id = id;
  job.work_cycles = work;
  return job;
}

TEST(SchedulerTest, AffinityPlacesOnPreferredCluster) {
  auto clusters = make_clusters();
  TaskSet tasks;
  const TaskId lt = tasks.create("lt", Affinity::PreferLittle);
  const TaskId bt = tasks.create("bt", Affinity::PreferBig);
  tasks.at(lt).submit(make_job(1, 1e6));
  tasks.at(bt).submit(make_job(2, 1e6));
  Scheduler scheduler;
  scheduler.schedule(tasks, clusters, 0.0);
  EXPECT_EQ(scheduler.placement_of(lt).cluster, 0u);
  EXPECT_EQ(scheduler.placement_of(bt).cluster, 1u);
}

TEST(SchedulerTest, AnyAffinityTieBreaksToLittle) {
  auto clusters = make_clusters();
  TaskSet tasks;
  const TaskId t = tasks.create("t", Affinity::Any);
  tasks.at(t).submit(make_job(1, 1e6));
  Scheduler scheduler;
  scheduler.schedule(tasks, clusters, 0.0);
  EXPECT_EQ(scheduler.placement_of(t).cluster, 0u);
}

TEST(SchedulerTest, SpreadsTasksAcrossCores) {
  auto clusters = make_clusters();
  TaskSet tasks;
  std::vector<TaskId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(
        tasks.create(std::string("t").append(std::to_string(i)), Affinity::Any));
    tasks.at(ids.back()).submit(make_job(static_cast<JobId>(i + 1), 1e6));
  }
  Scheduler scheduler;
  scheduler.schedule(tasks, clusters, 0.0);
  // No core should hold two tasks while another compatible core is empty.
  std::set<std::pair<std::size_t, std::size_t>> used;
  for (const auto id : ids) {
    const auto p = scheduler.placement_of(id);
    EXPECT_TRUE(p.valid());
    used.insert({p.cluster, p.core});
  }
  EXPECT_EQ(used.size(), 4u);
}

TEST(SchedulerTest, PreferredClusterSpillsWhenFull) {
  auto clusters = make_clusters();
  TaskSet tasks;
  std::vector<TaskId> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(
        tasks.create("big" + std::to_string(i), Affinity::PreferBig));
    tasks.at(ids.back()).submit(make_job(static_cast<JobId>(i + 1), 1e6));
  }
  Scheduler scheduler;
  scheduler.schedule(tasks, clusters, 0.0);
  // Big cluster has 2 cores; the third task must spill somewhere valid.
  int on_big = 0;
  for (const auto id : ids) {
    const auto p = scheduler.placement_of(id);
    EXPECT_TRUE(p.valid());
    on_big += p.cluster == 1 ? 1 : 0;
  }
  EXPECT_EQ(on_big, 2);
}

TEST(SchedulerTest, RunqueuesPopulated) {
  auto clusters = make_clusters();
  TaskSet tasks;
  const TaskId t = tasks.create("t", Affinity::PreferBig);
  tasks.at(t).submit(make_job(1, 1e6));
  Scheduler scheduler;
  scheduler.schedule(tasks, clusters, 0.0);
  std::size_t queued = 0;
  for (const auto& cluster : clusters) {
    for (const auto& core : cluster.cores()) {
      queued += core.runqueue().size();
    }
  }
  EXPECT_EQ(queued, 1u);
}

TEST(SchedulerTest, StickyBetweenRebalances) {
  auto clusters = make_clusters();
  TaskSet tasks;
  const TaskId t = tasks.create("t", Affinity::Any);
  tasks.at(t).submit(make_job(1, 1e12));
  Scheduler scheduler(SchedulerConfig{0.010});
  scheduler.schedule(tasks, clusters, 0.0);
  const auto first = scheduler.placement_of(t);
  // Within the rebalance period the placement must not move.
  scheduler.schedule(tasks, clusters, 0.001);
  scheduler.schedule(tasks, clusters, 0.005);
  const auto later = scheduler.placement_of(t);
  EXPECT_EQ(first.cluster, later.cluster);
  EXPECT_EQ(first.core, later.core);
}

TEST(SchedulerTest, NewTaskTriggersImmediatePlacement) {
  auto clusters = make_clusters();
  TaskSet tasks;
  Scheduler scheduler(SchedulerConfig{10.0});  // effectively never
  scheduler.schedule(tasks, clusters, 0.0);
  const TaskId t = tasks.create("late", Affinity::Any);
  tasks.at(t).submit(make_job(1, 1e6));
  scheduler.schedule(tasks, clusters, 0.001);
  EXPECT_TRUE(scheduler.placement_of(t).valid());
}

TEST(SchedulerTest, DeterministicAcrossIdenticalRuns) {
  for (int trial = 0; trial < 2; ++trial) {
    auto clusters = make_clusters();
    TaskSet tasks;
    std::vector<TaskId> ids;
    for (int i = 0; i < 6; ++i) {
      ids.push_back(tasks.create(std::string("t").append(std::to_string(i)),
                                 Affinity::Any, 1.0 + i % 3));
      tasks.at(ids.back()).submit(make_job(static_cast<JobId>(i + 1), 1e6));
    }
    Scheduler scheduler;
    scheduler.schedule(tasks, clusters, 0.0);
    static std::vector<std::pair<std::size_t, std::size_t>> reference;
    std::vector<std::pair<std::size_t, std::size_t>> placements;
    for (const auto id : ids) {
      const auto p = scheduler.placement_of(id);
      placements.emplace_back(p.cluster, p.core);
    }
    if (trial == 0) {
      reference = placements;
    } else {
      EXPECT_EQ(placements, reference);
    }
  }
}

TEST(SchedulerTest, StaggeredPeriodicTasksSpreadAcrossCores) {
  // Tasks that are runnable at *different* rebalances must not all funnel
  // onto core 0: the sticky history keeps each on its own core. This is a
  // regression test for util_max inflation under staggered frame pipelines.
  auto clusters = make_clusters();
  TaskSet tasks;
  std::vector<TaskId> ids;
  for (int i = 0; i < 2; ++i) {
    ids.push_back(tasks.create(std::string("w").append(std::to_string(i)),
                               Affinity::PreferBig));
  }
  Scheduler scheduler(SchedulerConfig{0.010});

  // Rebalance 1: only task 0 runnable -> some big core.
  tasks.at(ids[0]).submit(make_job(1, 1e6));
  scheduler.schedule(tasks, clusters, 0.0);
  const auto first = scheduler.placement_of(ids[0]);
  tasks.at(ids[0]).clear();

  // Rebalance 2: only task 1 runnable -> gets its own core.
  tasks.at(ids[1]).submit(make_job(2, 1e6));
  scheduler.schedule(tasks, clusters, 0.020);
  const auto second = scheduler.placement_of(ids[1]);
  tasks.at(ids[1]).clear();

  // Rebalance 3: task 0 again -> sticks to its original core.
  tasks.at(ids[0]).submit(make_job(3, 1e6));
  scheduler.schedule(tasks, clusters, 0.040);
  const auto third = scheduler.placement_of(ids[0]);
  EXPECT_EQ(third.cluster, first.cluster);
  EXPECT_EQ(third.core, first.core);

  // Rebalance 4: task 1 again -> sticks to its own (different) core.
  tasks.at(ids[0]).clear();
  tasks.at(ids[1]).submit(make_job(4, 1e6));
  scheduler.schedule(tasks, clusters, 0.060);
  const auto fourth = scheduler.placement_of(ids[1]);
  EXPECT_EQ(fourth.cluster, second.cluster);
  EXPECT_EQ(fourth.core, second.core);
}

TEST(SchedulerTest, InvalidateForcesRebalance) {
  auto clusters = make_clusters();
  TaskSet tasks;
  const TaskId t = tasks.create("t", Affinity::Any);
  tasks.at(t).submit(make_job(1, 1e6));
  Scheduler scheduler(SchedulerConfig{100.0});
  scheduler.schedule(tasks, clusters, 0.0);
  EXPECT_TRUE(scheduler.placement_of(t).valid());
  scheduler.invalidate();
  scheduler.schedule(tasks, clusters, 0.001);  // must not crash / reassigns
  EXPECT_TRUE(scheduler.placement_of(t).valid());
}

}  // namespace
}  // namespace pmrl::soc
