#include "mpisim/phase.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "isa/kernel.hpp"

namespace smtbal::mpisim {
namespace {

isa::KernelId kid() {
  return isa::KernelRegistry::instance().by_name(isa::kKernelHpcMixed).id;
}

TEST(RankProgram, BuilderChains) {
  RankProgram program;
  program.compute(kid(), 100)
      .delay(0.1)
      .barrier()
      .send(RankId{1}, 64)
      .recv(RankId{1}, 64)
      .wait_all();
  EXPECT_EQ(program.phases.size(), 6u);
  EXPECT_TRUE(std::holds_alternative<ComputePhase>(program.phases[0]));
  EXPECT_TRUE(std::holds_alternative<DelayPhase>(program.phases[1]));
  EXPECT_TRUE(std::holds_alternative<BarrierPhase>(program.phases[2]));
  EXPECT_TRUE(std::holds_alternative<SendPhase>(program.phases[3]));
  EXPECT_TRUE(std::holds_alternative<RecvPhase>(program.phases[4]));
  EXPECT_TRUE(std::holds_alternative<WaitAllPhase>(program.phases[5]));
}

TEST(RankProgram, RejectsNegativeWork) {
  RankProgram program;
  EXPECT_THROW(program.compute(kid(), -1.0), InvalidArgument);
  EXPECT_THROW(program.delay(-0.5), InvalidArgument);
}

TEST(Application, ValidRingApp) {
  Application app;
  app.ranks.resize(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const RankId peer{1 - r};
    app.ranks[r].compute(kid(), 10).send(peer, 8).recv(peer, 8).wait_all();
  }
  EXPECT_NO_THROW(app.validate());
}

TEST(Application, RejectsEmpty) {
  Application app;
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, RejectsMismatchedBarrierCounts) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].barrier().barrier();
  app.ranks[1].barrier();
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, RejectsSendToSelf) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{0}, 8);
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, RejectsPeerOutOfRange) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{5}, 8);
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, RejectsUnmatchedSend) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{1}, 8);
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, RejectsUnmatchedRecv) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].recv(RankId{1}, 8).wait_all();
  EXPECT_THROW(app.validate(), InvalidArgument);
}

TEST(Application, TagsMatterForMatching) {
  Application app;
  app.ranks.resize(2);
  app.ranks[0].send(RankId{1}, 8, /*tag=*/1);
  app.ranks[1].recv(RankId{0}, 8, /*tag=*/2).wait_all();
  EXPECT_THROW(app.validate(), InvalidArgument);
}

/// validate()'s message for `app`, or "" when it passes.
std::string validation_error(const Application& app) {
  try {
    app.validate();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(Application, UnmatchedTrafficNamesTheLowestChannel) {
  // Unmatched channels (src, dst, tag): (0,2,3) one send, (1,0,7) one
  // send, (2,1,-1) one recv; (2,0,0) is matched. The lowest is 0 -> 2.
  Application app;
  app.ranks.resize(3);
  app.ranks[0].recv(RankId{2}, 8).send(RankId{2}, 8, 3).wait_all();
  app.ranks[1].send(RankId{0}, 8, 7).recv(RankId{2}, 8, -1).wait_all();
  app.ranks[2].send(RankId{0}, 8);
  EXPECT_EQ(validation_error(app),
            "unmatched send/recv traffic between ranks 0 -> 2");
  // A recv-only channel below it, (0,1,-4), becomes the lowest.
  app.ranks[1].recv(RankId{0}, 8, -4).wait_all();
  EXPECT_EQ(validation_error(app),
            "unmatched send/recv traffic between ranks 0 -> 1");
  // Two sends against one recv on the same channel is unmatched too.
  Application surplus;
  surplus.ranks.resize(2);
  surplus.ranks[0].send(RankId{1}, 8).send(RankId{1}, 8);
  surplus.ranks[1].recv(RankId{0}, 8).wait_all();
  EXPECT_EQ(validation_error(surplus),
            "unmatched send/recv traffic between ranks 0 -> 1");
  surplus.ranks[1].recv(RankId{0}, 8).wait_all();
  EXPECT_EQ(validation_error(surplus), "");
}

TEST(Application, RejectsMismatchedCollectiveSequences) {
  const std::string differ =
      "rank collective sequences differ: the collective would deadlock";
  Application payload;
  payload.ranks.resize(2);
  payload.ranks[0].allreduce(8);
  payload.ranks[1].allreduce(16);
  EXPECT_EQ(validation_error(payload), differ);
  Application order;
  order.ranks.resize(3);
  for (auto& rank : order.ranks) rank.barrier().allreduce(8);
  order.ranks[2] = RankProgram{};
  order.ranks[2].allreduce(8).barrier();
  EXPECT_EQ(validation_error(order), differ);
}

TEST(Placement, IdentityMapsCoreMajor) {
  const Placement placement = Placement::identity(4);
  ASSERT_EQ(placement.cpu_of_rank.size(), 4u);
  EXPECT_EQ(placement.cpu_of_rank[0], (CpuId{CoreId{0}, ThreadSlot{0}}));
  EXPECT_EQ(placement.cpu_of_rank[1], (CpuId{CoreId{0}, ThreadSlot{1}}));
  EXPECT_EQ(placement.cpu_of_rank[2], (CpuId{CoreId{1}, ThreadSlot{0}}));
  EXPECT_EQ(placement.cpu_of_rank[3], (CpuId{CoreId{1}, ThreadSlot{1}}));
}

TEST(Placement, FromLinearRemaps) {
  // The paper's BT-MZ cases B-D: P1,P4 on core 1; P2,P3 on core 2.
  const Placement placement = Placement::from_linear({0, 2, 3, 1});
  EXPECT_EQ(placement.cpu_of_rank[0].core, CoreId{0});
  EXPECT_EQ(placement.cpu_of_rank[1].core, CoreId{1});
  EXPECT_EQ(placement.cpu_of_rank[2].core, CoreId{1});
  EXPECT_EQ(placement.cpu_of_rank[3].core, CoreId{0});
}

}  // namespace
}  // namespace smtbal::mpisim
