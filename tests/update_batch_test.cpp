#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fdrms.h"
#include "data/generators.h"

namespace fdrms {
namespace {

std::vector<std::pair<int, Point>> AsTuples(const PointSet& ps) {
  std::vector<std::pair<int, Point>> out;
  for (int i = 0; i < ps.size(); ++i) out.emplace_back(i, ps.Get(i));
  return out;
}

FdRmsOptions Options(int k, int r, double eps = 0.05, int M = 256,
                     uint64_t seed = 7) {
  FdRmsOptions opt;
  opt.k = k;
  opt.r = r;
  opt.eps = eps;
  opt.max_utilities = M;
  opt.seed = seed;
  return opt;
}

class UpdateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ps_ = GenerateIndep(200, 3, 31);
    algo_ = std::make_unique<FdRms>(3, Options(1, 8));
    ASSERT_TRUE(algo_->Initialize(AsTuples(ps_)).ok());
  }

  PointSet ps_ = PointSet(3);
  std::unique_ptr<FdRms> algo_;
};

TEST_F(UpdateTest, BeforeInitializeFails) {
  FdRms fresh(3, Options(1, 8));
  EXPECT_EQ(fresh.Update(0, {0.1, 0.2, 0.3}).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(UpdateTest, NotLiveIdFailsWithoutSideEffects) {
  const std::vector<int> before = algo_->Result();
  const int size_before = algo_->size();
  Status s = algo_->Update(/*id=*/4242, {0.1, 0.2, 0.3});
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(algo_->size(), size_before);
  EXPECT_EQ(algo_->Result(), before);
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, DimensionMismatchRemovesTupleAndReportsIt) {
  const int id = 0;
  ASSERT_TRUE(algo_->topk().tree().Contains(id));
  const int size_before = algo_->size();
  Status s = algo_->Update(id, {0.5, 0.5});  // 2-dim point into a 3-dim set
  ASSERT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The documented contract: the deletion stands and the Status says so.
  EXPECT_NE(s.message().find("removed"), std::string::npos) << s.ToString();
  EXPECT_FALSE(algo_->topk().tree().Contains(id));
  EXPECT_EQ(algo_->size(), size_before - 1);
  EXPECT_TRUE(algo_->Validate().ok());
  // The id is free again: a valid re-insert succeeds.
  EXPECT_TRUE(algo_->Insert(id, {0.5, 0.5, 0.5}).ok());
}

TEST_F(UpdateTest, ValidUpdateMovesTupleInPlace) {
  const int id = 7;
  const int size_before = algo_->size();
  const Point moved = {0.9, 0.8, 0.95};
  ASSERT_TRUE(algo_->Update(id, moved).ok());
  EXPECT_EQ(algo_->size(), size_before);
  EXPECT_TRUE(algo_->topk().tree().Contains(id));
  EXPECT_EQ(algo_->topk().tree().GetPoint(id), moved);
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, InsertWithWrongDimensionFailsCleanly) {
  // Regression: the utility-index pre-query must not dot a short point
  // against full-dimension utilities.
  const int size_before = algo_->size();
  Status s = algo_->Insert(5000, {0.1});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(algo_->size(), size_before);
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, ApplyBatchAppliesEveryOpInOrder) {
  std::vector<FdRms::BatchOp> ops;
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 300, {0.2, 0.4, 0.6}});
  ops.push_back({FdRms::BatchOp::Kind::kUpdate, 300, {0.7, 0.1, 0.3}});
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 0, {}});
  ASSERT_TRUE(algo_->ApplyBatch(ops).ok());
  EXPECT_TRUE(algo_->topk().tree().Contains(300));
  EXPECT_EQ(algo_->topk().tree().GetPoint(300), Point({0.7, 0.1, 0.3}));
  EXPECT_FALSE(algo_->topk().tree().Contains(0));
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, ApplyBatchStopsAtFirstFailure) {
  const int size_before = algo_->size();
  std::vector<FdRms::BatchOp> ops;
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 301, {0.3, 0.3, 0.3}});
  // Fails: id 1 is already live.
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 1, {0.5, 0.5, 0.5}});
  // Must never run.
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 302, {0.6, 0.6, 0.6}});
  Status s = algo_->ApplyBatch(ops);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(algo_->topk().tree().Contains(301));   // op before the failure
  EXPECT_FALSE(algo_->topk().tree().Contains(302));  // op after the failure
  EXPECT_EQ(algo_->size(), size_before + 1);
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, ApplyBatchStopsAtFailedDelete) {
  std::vector<FdRms::BatchOp> ops;
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 2, {}});
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 9999, {}});  // not live
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 303, {0.4, 0.4, 0.4}});
  Status s = algo_->ApplyBatch(ops);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_FALSE(algo_->topk().tree().Contains(2));
  EXPECT_FALSE(algo_->topk().tree().Contains(303));
  EXPECT_TRUE(algo_->Validate().ok());
}

TEST_F(UpdateTest, EmptyBatchIsOk) {
  EXPECT_TRUE(algo_->ApplyBatch({}).ok());
}

TEST_F(UpdateTest, ApplyBatchReportsAppliedCountAndResumesFromOffset) {
  std::vector<FdRms::BatchOp> ops;
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 304, {0.2, 0.2, 0.2}});
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 9999, {}});  // not live
  ops.push_back({FdRms::BatchOp::Kind::kInsert, 305, {0.3, 0.3, 0.3}});
  ops.push_back({FdRms::BatchOp::Kind::kDelete, 3, {}});
  size_t applied = 0;
  Status s = algo_->ApplyBatch(ops, /*begin=*/0, &applied);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(applied, 1u);  // index of the failed op
  // Resume past the offender: counts are relative to `begin`.
  ASSERT_TRUE(algo_->ApplyBatch(ops, /*begin=*/2, &applied).ok());
  EXPECT_EQ(applied, 2u);
  EXPECT_TRUE(algo_->topk().tree().Contains(304));
  EXPECT_TRUE(algo_->topk().tree().Contains(305));
  EXPECT_FALSE(algo_->topk().tree().Contains(3));
  EXPECT_TRUE(algo_->Validate().ok());
}

}  // namespace
}  // namespace fdrms
