// Tests for the LP/MILP solver: textbook cases, edge cases, and a
// property sweep checking branch-and-bound against brute force on random
// binary programs.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ilp/simplex.hpp"
#include "ilp/solver.hpp"

namespace clara::ilp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6  => x=4, y=0, obj 12.
  Model m;
  const int x = m.add_continuous("x");
  const int y = m.add_continuous("y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLe, 4);
  m.add_constraint(LinExpr().add(x, 1).add(y, 3), Sense::kLe, 6);
  m.set_objective(LinExpr().add(x, -3).add(y, -2));  // minimize negative
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -12.0, 1e-6);
  EXPECT_NEAR(sol.value(x), 4.0, 1e-6);
  EXPECT_NEAR(sol.value(y), 0.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x >= 2 -> obj 5.
  Model m;
  const int x = m.add_continuous("x", 2.0);
  const int y = m.add_continuous("y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kEq, 5);
  m.set_objective(LinExpr().add(x, 1).add(y, 1));
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 5.0, 1e-6);
  EXPECT_GE(sol.value(x), 2.0 - 1e-9);
}

TEST(Simplex, GreaterEqualAndNegativeRhs) {
  // min 2x s.t. -x <= -3  (i.e. x >= 3) -> x = 3.
  Model m;
  const int x = m.add_continuous("x");
  m.add_constraint(LinExpr().add(x, -1), Sense::kLe, -3);
  m.set_objective(LinExpr().add(x, 2));
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 3.0, 1e-6);
}

TEST(Simplex, InfeasibleDetected) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 1.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kGe, 5);
  m.set_objective(LinExpr().add(x, 1));
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, InfeasibleBoundOverride) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  m.set_objective(LinExpr().add(x, 1));
  LpOptions options;
  options.lo_override = {5.0};
  options.hi_override = {2.0};
  EXPECT_EQ(solve_lp(m, options).status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  Model m;
  const int x = m.add_continuous("x");
  m.set_objective(LinExpr().add(x, -1));  // minimize -x with x unbounded
  EXPECT_EQ(solve_lp(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, VariableShifting) {
  // Lower bounds are handled by shifting: min x s.t. x >= 7 (bound only).
  Model m;
  const int x = m.add_continuous("x", 7.0, 100.0);
  m.set_objective(LinExpr().add(x, 1));
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 7.0, 1e-9);
}

TEST(Simplex, ObjectiveConstant) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 1.0);
  m.set_objective(LinExpr(10.0).add(x, 1));
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
}

TEST(Simplex, DegenerateRedundantConstraints) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 10.0);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 5);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 5);
  m.add_constraint(LinExpr().add(x, 2), Sense::kLe, 10);
  m.set_objective(LinExpr().add(x, -1));
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 5.0, 1e-6);
}

TEST(Simplex, NearTieRatioChainResolvesInRowOrder) {
  // Three ratios within kEps of each other, smallest in the last row.
  // The ratio test keeps a candidate within kEps of the running best
  // when its basis index is lower, so the winner depends on the order
  // the rows are visited: a 0..m scan ends on row 2 (x = 1), a reverse
  // scan would walk the chain up to row 0 (x = 1 + 1.4e-9). Both
  // engines must take row 2, whichever rows their columns list.
  Model m;
  const int x = m.add_continuous("x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 1.0 + 1.4e-9);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 1.0 + 0.7e-9);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 1.0);
  m.set_objective(LinExpr().add(x, -1));
  for (const auto algorithm : {LpAlgorithm::kRevised, LpAlgorithm::kDense}) {
    LpOptions options;
    options.algorithm = algorithm;
    const auto sol = solve_lp(m, options);
    ASSERT_TRUE(sol.optimal());
    EXPECT_EQ(sol.value(x), 1.0);
    // Columns: x, then the slacks of rows 0..2; x replaced row 2's slack.
    EXPECT_EQ(sol.basis, (std::vector<std::size_t>{1, 2, 0}));
  }
}

TEST(LinExprTest, DenseMergesDuplicates) {
  LinExpr e;
  e.add(0, 1.0).add(0, 2.0).add(1, -1.0);
  const auto dense = e.dense(2);
  EXPECT_DOUBLE_EQ(dense[0], 3.0);
  EXPECT_DOUBLE_EQ(dense[1], -1.0);
}

TEST(Milp, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> a,b -> 16.
  Model m;
  const int a = m.add_binary("a");
  const int b = m.add_binary("b");
  const int c = m.add_binary("c");
  m.add_constraint(LinExpr().add(a, 1).add(b, 1).add(c, 1), Sense::kLe, 2);
  m.set_objective(LinExpr().add(a, -10).add(b, -6).add(c, -4));
  const auto sol = solve_milp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -16.0, 1e-6);
  EXPECT_NEAR(sol.value(a), 1.0, 1e-6);
  EXPECT_NEAR(sol.value(b), 1.0, 1e-6);
  EXPECT_NEAR(sol.value(c), 0.0, 1e-6);
}

TEST(Milp, IntegralityMatters) {
  // LP relaxation gives x = 2.5; MILP must give 2 (x integer, 2x <= 5).
  Model m;
  const int x = m.add_integer("x", 0, 10);
  m.add_constraint(LinExpr().add(x, 2), Sense::kLe, 5);
  m.set_objective(LinExpr().add(x, -1));
  const auto sol = solve_milp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 2.0, 1e-6);
}

TEST(Milp, InfeasibleInteger) {
  // 0.4 <= x <= 0.6 with x binary has no integer point.
  Model m;
  const int x = m.add_binary("x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kGe, 0.4);
  m.add_constraint(LinExpr().add(x, 1), Sense::kLe, 0.6);
  m.set_objective(LinExpr().add(x, 1));
  EXPECT_EQ(solve_milp(m).status, SolveStatus::kInfeasible);
}

TEST(Milp, PureLpPassThrough) {
  Model m;
  const int x = m.add_continuous("x", 0.0, 3.0);
  m.set_objective(LinExpr().add(x, -1));
  const auto sol = solve_milp(m);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.value(x), 3.0, 1e-6);
}

TEST(Milp, AssignmentProblem) {
  // 3 tasks x 3 machines, minimize cost; classic assignment.
  const double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  Model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i) {
    LinExpr row;
    for (int j = 0; j < 3; ++j) {
      x[i][j] = m.add_binary("x");
      row.add(x[i][j], 1);
    }
    m.add_constraint(std::move(row), Sense::kEq, 1);
  }
  for (int j = 0; j < 3; ++j) {
    LinExpr col;
    for (int i = 0; i < 3; ++i) col.add(x[i][j], 1);
    m.add_constraint(std::move(col), Sense::kLe, 1);
  }
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) obj.add(x[i][j], cost[i][j]);
  }
  m.set_objective(std::move(obj));
  const auto sol = solve_milp(m);
  ASSERT_TRUE(sol.optimal());
  // Optimal: task0->m1 (2), task1->m2 (7)?? brute force: permutations:
  // (0,1,2):4+3+6=13 (1,0,2):2+4+6=12 (1,2,0):2+7+3=12 (0,2,1):4+7+1=12
  // (2,0,1):8+4+1=13 (2,1,0):8+3+3=14 -> min 12.
  EXPECT_NEAR(sol.objective, 12.0, 1e-6);
}

TEST(Milp, PickBranchVarPrefersMostFractional) {
  // Regression: the score must reward closeness to 0.5, so a 0.49
  // fraction beats a 0.01 fraction (an earlier version scored by the
  // raw fraction and picked nearly-integral variables).
  Model m;
  const int a = m.add_binary("a");
  const int b = m.add_binary("b");
  const int c = m.add_binary("c");
  std::vector<double> values(3, 0.0);
  values[static_cast<std::size_t>(a)] = 1.01;  // fraction 0.01
  values[static_cast<std::size_t>(b)] = 0.49;  // most fractional
  values[static_cast<std::size_t>(c)] = 1.0;   // integral
  EXPECT_EQ(pick_branch_var(m, values, 1e-6), b);
  // Fractions symmetric around one half tie; the lowest index wins.
  values[static_cast<std::size_t>(a)] = 0.51;
  EXPECT_EQ(pick_branch_var(m, values, 1e-6), a);
  // All integral within tolerance: no branch candidate.
  values[static_cast<std::size_t>(a)] = 1.0;
  values[static_cast<std::size_t>(b)] = 0.0;
  EXPECT_EQ(pick_branch_var(m, values, 1e-6), -1);
}

// Property test: branch-and-bound equals brute-force enumeration on
// random binary programs.
class MilpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MilpPropertyTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const int n = 6;
  const int n_constraints = 4;

  Model m;
  std::vector<int> vars;
  std::vector<double> obj_coefs;
  for (int i = 0; i < n; ++i) {
    vars.push_back(m.add_binary("b"));
    obj_coefs.push_back(std::floor(rng.next_double() * 21.0) - 10.0);
  }
  LinExpr obj;
  for (int i = 0; i < n; ++i) obj.add(vars[i], obj_coefs[i]);
  m.set_objective(std::move(obj));

  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int c = 0; c < n_constraints; ++c) {
    LinExpr expr;
    std::vector<double> row;
    double total_pos = 0.0;
    for (int i = 0; i < n; ++i) {
      const double coef = std::floor(rng.next_double() * 11.0) - 5.0;
      row.push_back(coef);
      expr.add(vars[i], coef);
      if (coef > 0) total_pos += coef;
    }
    const double bound = std::floor(rng.next_double() * total_pos);
    rows.push_back(row);
    rhs.push_back(bound);
    m.add_constraint(std::move(expr), Sense::kLe, bound);
  }

  // Brute force over 2^n assignments.
  double best = 1e300;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool feasible = true;
    for (int c = 0; c < n_constraints && feasible; ++c) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) lhs += rows[c][i];
      }
      feasible = lhs <= rhs[c] + 1e-9;
    }
    if (!feasible) continue;
    double value = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) value += obj_coefs[i];
    }
    best = std::min(best, value);
  }

  const auto sol = solve_milp(m);
  if (best == 1e300) {
    EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_TRUE(sol.optimal()) << "seed " << GetParam();
    EXPECT_NEAR(sol.objective, best, 1e-5) << "seed " << GetParam();
    // Solution must itself be feasible and integral.
    for (int c = 0; c < n_constraints; ++c) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) lhs += rows[c][i] * sol.value(vars[i]);
      EXPECT_LE(lhs, rhs[c] + 1e-6);
    }
    for (int i = 0; i < n; ++i) {
      const double v = sol.value(vars[i]);
      EXPECT_NEAR(v, std::round(v), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MilpPropertyTest, ::testing::Range(0, 40));

// LP property: simplex optimum never exceeds any feasible point we can
// construct (random LPs with a known feasible point).
class LpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LpPropertyTest, OptimumBeatsRandomFeasiblePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const int n = 5;
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < n; ++i) vars.push_back(m.add_continuous("x", 0.0, 10.0));
  LinExpr obj;
  std::vector<double> c;
  for (int i = 0; i < n; ++i) {
    c.push_back(rng.next_double() * 4.0 - 2.0);
    obj.add(vars[i], c.back());
  }
  m.set_objective(std::move(obj));
  // Constraints with non-negative coefficients keep 0 feasible.
  std::vector<std::vector<double>> rows;
  std::vector<double> rhs;
  for (int k = 0; k < 3; ++k) {
    LinExpr e;
    std::vector<double> row;
    for (int i = 0; i < n; ++i) {
      const double coef = rng.next_double() * 3.0;
      row.push_back(coef);
      e.add(vars[i], coef);
    }
    rows.push_back(row);
    rhs.push_back(rng.next_double() * 20.0 + 1.0);
    m.add_constraint(std::move(e), Sense::kLe, rhs.back());
  }
  const auto sol = solve_lp(m);
  ASSERT_TRUE(sol.optimal());
  // Generate random feasible points by scaling random vectors into the
  // feasible region; the simplex optimum must be at least as good.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(n);
    for (int i = 0; i < n; ++i) x[i] = rng.next_double() * 10.0;
    double worst_scale = 1.0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      double lhs = 0.0;
      for (int i = 0; i < n; ++i) lhs += rows[k][i] * x[i];
      if (lhs > rhs[k]) worst_scale = std::min(worst_scale, rhs[k] / lhs);
    }
    double value = 0.0;
    for (int i = 0; i < n; ++i) value += c[i] * x[i] * worst_scale;
    EXPECT_GE(value, sol.objective - 1e-6) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, LpPropertyTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace clara::ilp
