// Tests for src/common: Status/Result, Slice, byte streams, strings, RNG.

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/string_util.h"

namespace jaguar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("table t");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "table t");
  EXPECT_EQ(s.ToString(), "NotFound: table t");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_TRUE(InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(IoError("x").IsIoError());
  EXPECT_TRUE(Corruption("x").IsCorruption());
  EXPECT_TRUE(Internal("x").IsInternal());
  EXPECT_TRUE(NotSupported("x").IsNotSupported());
  EXPECT_TRUE(SecurityViolation("x").IsSecurityViolation());
  EXPECT_TRUE(ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(RuntimeError("x").IsRuntimeError());
  EXPECT_TRUE(VerificationError("x").IsVerificationError());
}

TEST(StatusTest, CopyIsCheap) {
  Status a = Internal("boom");
  Status b = a;  // shared rep
  EXPECT_EQ(b.message(), "boom");
  EXPECT_TRUE(b.IsInternal());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return InvalidArgument("not positive");
  return v;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 5);
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(bad.value_or(42), 42);
}

Status UseAssignOrReturn(int v, int* out) {
  JAGUAR_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  *out = parsed * 2;
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseAssignOrReturn(-3, &out).IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl.ToString(), "hello world");
  Slice sub = sl.SubSlice(6, 5);
  EXPECT_EQ(sub.ToString(), "world");
  EXPECT_EQ(sl.SubSlice(100, 5).size(), 0u);
  EXPECT_EQ(sl.SubSlice(6, 100).ToString(), "world");
}

TEST(SliceTest, CompareAndEquality) {
  EXPECT_EQ(Slice("abc"), Slice("abc"));
  EXPECT_NE(Slice("abc"), Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice().Compare(Slice()), 0);
  EXPECT_EQ(Slice(), Slice(""));
}

TEST(SliceTest, RemovePrefix) {
  Slice sl("abcdef");
  sl.RemovePrefix(2);
  EXPECT_EQ(sl.ToString(), "cdef");
}

TEST(BytesTest, RoundTripAllWidths) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutI64(-12345);
  w.PutDouble(3.25);
  w.PutString("hi");
  w.PutLengthPrefixed(Slice("xyz"));

  BufferReader r(w.AsSlice());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI64().value(), -12345);
  EXPECT_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_EQ(r.ReadString().value(), "hi");
  EXPECT_EQ(r.ReadLengthPrefixed().value().ToString(), "xyz");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadsFailWithCorruption) {
  BufferWriter w;
  w.PutU16(7);
  BufferReader r(w.AsSlice());
  EXPECT_TRUE(r.ReadU32().status().IsCorruption());
  // The failed read must not consume anything usable afterwards.
  BufferReader r2(w.AsSlice());
  EXPECT_TRUE(r2.ReadU16().ok());
  EXPECT_TRUE(r2.ReadU8().status().IsCorruption());
}

TEST(BytesTest, LengthPrefixLongerThanBufferFails) {
  BufferWriter w;
  w.PutU32(1000);  // claims 1000 bytes, none follow
  BufferReader r(w.AsSlice());
  EXPECT_TRUE(r.ReadLengthPrefixed().status().IsCorruption());
}

TEST(BytesTest, PatchU32) {
  BufferWriter w;
  w.PutU32(0);
  w.PutString("data");
  w.PatchU32(0, static_cast<uint32_t>(w.size()));
  BufferReader r(w.AsSlice());
  EXPECT_EQ(r.ReadU32().value(), w.size());
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("AbC1"), "abc1");
  EXPECT_EQ(ToUpper("AbC1"), "ABC1");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtilTest, SplitTrimJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StringPrintf("%s", ""), "");
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BytesLengthAndVariety) {
  Random r(9);
  auto bytes = r.Bytes(4096);
  EXPECT_EQ(bytes.size(), 4096u);
  // Very weak uniformity check: at least 200 distinct byte values.
  std::set<uint8_t> distinct(bytes.begin(), bytes.end());
  EXPECT_GT(distinct.size(), 200u);
}

}  // namespace
}  // namespace jaguar
