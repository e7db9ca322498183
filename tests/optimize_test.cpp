// Tests for the CIR cleanup passes: constant folding, branch
// simplification, dead-code elimination, unreachable-block removal —
// and the preservation properties (verification + observational
// equivalence under the interpreter).
#include <gtest/gtest.h>

#include "cir/builder.hpp"
#include "cir/interp.hpp"
#include "cir/verify.hpp"
#include "nf/catalog.hpp"
#include "passes/api_subst.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"

namespace clara::passes {
namespace {

using cir::FunctionBuilder;
using cir::Opcode;
using cir::Value;

class CountingHandler final : public cir::VCallHandler {
 public:
  std::uint64_t handle(cir::VCall v, std::span<const std::uint64_t> args) override {
    calls.emplace_back(v, std::vector<std::uint64_t>(args.begin(), args.end()));
    switch (v) {
      case cir::VCall::kGetHdr: return 300;   // any field reads 300
      case cir::VCall::kTableLookup: return 1;
      case cir::VCall::kMeter: return 1;
      default: return 0;
    }
  }
  std::vector<std::pair<cir::VCall, std::vector<std::uint64_t>>> calls;
};

TEST(Optimize, FoldsConstantChain) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  const auto a = b.add(Value::of_imm(2), Value::of_imm(3));   // 5
  const auto c = b.mul(a, Value::of_imm(4));                  // 20
  const auto d = b.cmp_gt(c, Value::of_imm(10));              // 1
  b.vcall(cir::VCall::kEmit, {d}, false);
  b.ret();
  auto fn = b.take();
  const auto report = optimize(fn);
  EXPECT_GE(report.folded, 3u);
  EXPECT_GE(report.dead_removed, 3u);  // the folded defs die
  EXPECT_TRUE(cir::verify(fn).ok());
  // The emit call now takes a constant.
  const auto& instrs = fn.blocks[0].instrs;
  ASSERT_EQ(instrs.size(), 2u);  // call + ret
  EXPECT_EQ(instrs[0].op, Opcode::kCall);
  EXPECT_TRUE(instrs[0].args[0].is_imm());
  EXPECT_EQ(instrs[0].args[0].imm, 1);
}

TEST(Optimize, SimplifiesConstantBranchAndRemovesDeadBlock) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto live = b.create_block("live");
  const auto dead = b.create_block("dead");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(1), Value::of_imm(1));
  b.cond_br(cond, live, dead);
  b.set_insert_point(live);
  b.vcall(cir::VCall::kEmit, {Value::of_imm(1)}, false);
  b.ret();
  b.set_insert_point(dead);
  b.vcall(cir::VCall::kDrop, {}, false);
  b.ret();
  auto fn = b.take();
  const auto report = optimize(fn);
  EXPECT_EQ(report.branches_simplified, 1u);
  EXPECT_EQ(report.blocks_removed, 1u);
  EXPECT_EQ(fn.blocks.size(), 2u);
  EXPECT_TRUE(cir::verify(fn).ok());
}

TEST(Optimize, PrunesPhiEdgesOfRemovedBranch) {
  FunctionBuilder b("f");
  const auto entry = b.create_block("entry");
  const auto left = b.create_block("left");
  const auto join = b.create_block("join");
  b.set_insert_point(entry);
  const auto cond = b.cmp_eq(Value::of_imm(0), Value::of_imm(1));  // false -> join directly
  b.cond_br(cond, left, join);
  b.set_insert_point(left);
  const auto v = b.add(Value::of_imm(7), Value::of_imm(0));
  b.br(join);
  b.set_insert_point(join);
  const auto merged = b.phi();
  b.add_incoming(merged, v, left);
  b.add_incoming(merged, Value::of_imm(9), entry);
  b.vcall(cir::VCall::kEmit, {merged}, false);
  b.ret();
  auto fn = b.take();
  optimize(fn);
  ASSERT_TRUE(cir::verify(fn).ok()) << cir::verify(fn).error().message;
  // The phi folded to its single surviving input (9).
  bool emit_arg_is_9 = false;
  for (const auto& block : fn.blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op == Opcode::kCall && instr.callee == "vcall_emit") {
        emit_arg_is_9 = instr.args[0].is_imm() && instr.args[0].imm == 9;
      }
    }
  }
  EXPECT_TRUE(emit_arg_is_9);
}

TEST(Optimize, NeverRemovesCallsOrStores) {
  FunctionBuilder b("f");
  const auto state = b.add_state(cir::StateObject{"s", 8, 16, cir::StatePattern::kArray});
  b.set_insert_point(b.create_block("entry"));
  b.vcall(cir::VCall::kCsum, {Value::of_imm(100)});  // result unused, but effects priced
  b.store_state(state, Value::of_imm(0), Value::of_imm(1));
  b.ret();
  auto fn = b.take();
  const auto before = fn.blocks[0].instrs.size();
  optimize(fn);
  EXPECT_EQ(fn.blocks[0].instrs.size(), before);
}

TEST(Optimize, DoesNotFoldDivByZero) {
  FunctionBuilder b("f");
  b.set_insert_point(b.create_block("entry"));
  const auto v = b.div(Value::of_imm(5), Value::of_imm(0));
  b.vcall(cir::VCall::kEmit, {v}, false);
  b.ret();
  auto fn = b.take();
  optimize(fn);
  EXPECT_EQ(fn.blocks[0].instrs[0].op, Opcode::kDiv);  // left in place
}

TEST(Optimize, IdempotentOnCorpus) {
  for (const char* name : {"nat", "firewall", "dpi", "vnf-chain"}) {
    auto fn = nf::find_nf(name)->build();
    substitute_framework_apis(fn);
    optimize(fn);
    auto second = optimize(fn);
    EXPECT_EQ(second.total(), 0u) << fn.name;
    EXPECT_TRUE(cir::verify(fn).ok()) << fn.name;
  }
}

TEST(Optimize, PreservesObservableBehaviour) {
  // Same vcall sequence (names + argument values) before and after, for
  // every corpus NF, under a fixed environment.
  for (const char* name : {"nat", "firewall", "heavy-hitter", "meter", "crypto-gw", "rewrite"}) {
    auto original = nf::find_nf(name)->build();
    substitute_framework_apis(original);
    auto optimized = original;
    optimize(optimized);
    ASSERT_TRUE(cir::verify(optimized).ok()) << original.name;

    CountingHandler h1, h2;
    cir::Interpreter i1(original, h1);
    cir::Interpreter i2(optimized, h2);
    ASSERT_TRUE(i1.run().ok()) << original.name;
    ASSERT_TRUE(i2.run().ok()) << original.name;
    ASSERT_EQ(h1.calls.size(), h2.calls.size()) << original.name;
    for (std::size_t i = 0; i < h1.calls.size(); ++i) {
      EXPECT_EQ(h1.calls[i].first, h2.calls[i].first) << original.name << " call " << i;
      EXPECT_EQ(h1.calls[i].second, h2.calls[i].second) << original.name << " call " << i;
    }
  }
}

TEST(Optimize, ShrinksHandWrittenSlop) {
  // A function with obvious front-end slop: folds shrink it measurably.
  FunctionBuilder b("sloppy");
  const auto entry = b.create_block("entry");
  b.set_insert_point(entry);
  Value acc = Value::of_imm(0);
  for (int i = 0; i < 20; ++i) acc = b.add(acc, Value::of_imm(i));
  const auto unused1 = b.mul(Value::of_imm(3), Value::of_imm(7));
  const auto unused2 = b.bxor(unused1, unused1);
  (void)unused2;
  b.vcall(cir::VCall::kEmit, {acc}, false);
  b.ret();
  auto fn = b.take();
  const auto before = fn.blocks[0].instrs.size();
  const auto report = optimize(fn);
  EXPECT_LT(fn.blocks[0].instrs.size(), before / 2);
  EXPECT_GE(report.folded, 20u);
}

}  // namespace
}  // namespace clara::passes
