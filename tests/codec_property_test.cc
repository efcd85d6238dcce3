// Property-based round-trip tests for every codec that crosses a trust
// boundary: WAL record frames (disk), the ADT stream value/tuple encodings
// and BatchCodec framing (disk + IPC), and the net/protocol payloads and
// socket frames (wire).
//
// Three properties, each checked over thousands of seeded-random inputs:
//   1. encode -> decode -> re-encode is byte-identical (no lossy fields,
//      no nondeterministic encoding);
//   2. every strict prefix of an encoding fails to decode with a clean
//      Status (truncation can't be mistaken for a shorter valid input);
//   3. corrupted and random garbage inputs return a Status or a decoded
//      value — they never crash, hang, or trip a sanitizer.
// Fixed seeds keep failures reproducible: a seed in an assertion message
// is enough to replay the exact failing input.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "net/protocol.h"
#include "storage/page.h"
#include "types/schema.h"
#include "types/tuple.h"
#include "types/value.h"
#include "wal/wal_record.h"

namespace jaguar {
namespace {

constexpr int kRounds = 10000;

// ---------------------------------------------------------------------------
// WAL record frames.
// ---------------------------------------------------------------------------

wal::WalRecord RandomWalRecord(Random* rng) {
  wal::WalRecord rec;
  rec.type = static_cast<wal::WalRecordType>(1 + rng->Uniform(5));
  rec.lsn = rng->Next();
  rec.page_id = static_cast<uint32_t>(rng->Next());
  rec.aux = static_cast<uint32_t>(rng->Next());
  if (rec.type == wal::WalRecordType::kPageWrite) {
    rec.offset = static_cast<uint32_t>(rng->Uniform(kPageSize + 1));
    rec.data = rng->Bytes(rng->Uniform(kPageSize - rec.offset + 1));
  } else {
    rec.offset = static_cast<uint32_t>(rng->Next());
    rec.data = rng->Bytes(rng->Uniform(64));
  }
  return rec;
}

TEST(WalRecordCodecTest, RoundTripIsByteIdentical) {
  Random rng(0xA11CE);
  for (int i = 0; i < kRounds; ++i) {
    wal::WalRecord rec = RandomWalRecord(&rng);
    std::vector<uint8_t> frame;
    size_t n = wal::AppendWalFrame(rec, &frame);
    ASSERT_EQ(n, frame.size());

    auto decoded = wal::ReadWalFrame(Slice(frame));
    ASSERT_TRUE(decoded.ok()) << "round " << i << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded->second, frame.size());
    EXPECT_TRUE(decoded->first == rec) << "round " << i;

    std::vector<uint8_t> again;
    wal::AppendWalFrame(decoded->first, &again);
    EXPECT_EQ(again, frame) << "round " << i << ": re-encode diverged";
  }
}

TEST(WalRecordCodecTest, EveryTruncationFailsCleanly) {
  Random rng(0xBEEF);
  for (int i = 0; i < 2000; ++i) {
    wal::WalRecord rec = RandomWalRecord(&rng);
    std::vector<uint8_t> frame;
    wal::AppendWalFrame(rec, &frame);
    size_t cut = rng.Uniform(frame.size());
    auto decoded = wal::ReadWalFrame(Slice(frame.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "round " << i << ": accepted a frame cut "
                               << "to " << cut << "/" << frame.size();
  }
}

TEST(WalRecordCodecTest, SingleBitFlipsAreRejected) {
  Random rng(0xC0FFEE);
  for (int i = 0; i < 2000; ++i) {
    wal::WalRecord rec = RandomWalRecord(&rng);
    std::vector<uint8_t> frame;
    wal::AppendWalFrame(rec, &frame);
    size_t pos = rng.Uniform(frame.size());
    frame[pos] ^= static_cast<uint8_t>(1u << rng.Uniform(8));
    // Either the length becomes implausible or the CRC catches it.
    auto decoded = wal::ReadWalFrame(Slice(frame));
    EXPECT_FALSE(decoded.ok())
        << "round " << i << ": flip at byte " << pos << " went unnoticed";
  }
}

TEST(WalRecordCodecTest, RandomGarbageNeverCrashes) {
  Random rng(0xD00D);
  for (int i = 0; i < kRounds; ++i) {
    std::vector<uint8_t> junk = rng.Bytes(rng.Uniform(256));
    wal::ReadWalFrame(Slice(junk)).ok();       // status either way, no crash
    wal::DecodeWalRecord(Slice(junk)).ok();
  }
}

// ---------------------------------------------------------------------------
// ADT stream values, tuples, and batch framing.
// ---------------------------------------------------------------------------

Value RandomValue(Random* rng) {
  switch (rng->Uniform(6)) {
    case 0: return Value::Null();
    case 1: return Value::Bool(rng->Uniform(2) == 1);
    case 2: return Value::Int(static_cast<int64_t>(rng->Next()));
    case 3: return Value::Double(rng->NextDouble() * 1e9);
    case 4: return Value::String(rng->AlphaString(rng->Uniform(48)));
    default: return Value::Bytes(rng->Bytes(rng->Uniform(48)));
  }
}

TEST(ValueCodecTest, RoundTripIsByteIdentical) {
  Random rng(0x5EED);
  for (int i = 0; i < kRounds; ++i) {
    Value v = RandomValue(&rng);
    BufferWriter w;
    v.WriteTo(&w);

    BufferReader r(w.AsSlice());
    auto decoded = Value::ReadFrom(&r);
    ASSERT_TRUE(decoded.ok()) << "round " << i;
    ASSERT_TRUE(r.AtEnd());

    BufferWriter again;
    decoded->WriteTo(&again);
    EXPECT_EQ(again.buffer(), w.buffer()) << "round " << i;
  }
}

// The mask decoder (`Tuple::DecodeColumns`) is the heap scan's record
// decoder and `Deserialize` is its all-columns case. On a whole record it
// must give the reference decoder's verdict on every input — accept what it
// accepts, Corruption where it fails — and its values on the masked columns
// (NULL elsewhere). A scan may first see only an overflow record's
// first chunk: decoding that prefix may stop early, but it never reports a
// Corruption the whole record lacks and, falling back to the whole record
// when it needs a column past the chunk, yields the same values.

ColumnMask RandomMask(Random* rng, size_t arity) {
  switch (rng->Uniform(4)) {
    case 0: return ColumnMask();
    case 1: return ColumnMask::All();
    default: {
      ColumnMask mask;
      for (size_t i = 0; i < arity + 2; ++i) {
        if (rng->Uniform(2) == 1) mask.Add(i);
      }
      return mask;
    }
  }
}

std::string EncodedValue(const Value& v) {
  BufferWriter w;
  v.WriteTo(&w);
  return Slice(w.buffer()).ToString();
}

/// `got` holds `want`'s values on the masked columns and NULL elsewhere.
::testing::AssertionResult MaskedEqual(const Tuple& want, const Tuple& got,
                                       const ColumnMask& mask) {
  if (got.num_values() != want.num_values()) {
    return ::testing::AssertionFailure()
           << "arity " << got.num_values() << " != " << want.num_values();
  }
  for (size_t c = 0; c < want.num_values(); ++c) {
    const Value expected = mask.Has(c) ? want.value(c) : Value::Null();
    if (EncodedValue(got.value(c)) != EncodedValue(expected)) {
      return ::testing::AssertionFailure() << "column " << c << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Decodes `bytes` the way a heap scan does when the record's first chunk
/// holds `chunk` bytes: the prefix first, the whole record if a masked
/// column lies past it.
Result<Tuple> DecodeAsScan(const std::vector<uint8_t>& bytes, size_t chunk,
                           const ColumnMask& mask) {
  Tuple t;
  if (chunk < bytes.size()) {
    JAGUAR_ASSIGN_OR_RETURN(
        bool done, Tuple::DecodeColumns(Slice(bytes.data(), chunk), mask,
                                        /*prefix=*/true, &t));
    if (done) return t;
  }
  JAGUAR_RETURN_IF_ERROR(
      Tuple::DecodeColumns(Slice(bytes), mask, /*prefix=*/false, &t).status());
  return t;
}

/// An independent reference decoder — arity bound, every column read
/// through `BufferReader`, no trailing bytes — sharing no code with the
/// mask decoder, which `Deserialize` and `Value::ReadFrom` both use.
Result<Value> ReferenceReadValue(BufferReader* r) {
  JAGUAR_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
  switch (static_cast<TypeId>(tag)) {
    case TypeId::kNull:
      return Value::Null();
    case TypeId::kBool: {
      JAGUAR_ASSIGN_OR_RETURN(uint8_t b, r->ReadU8());
      return Value::Bool(b != 0);
    }
    case TypeId::kInt: {
      JAGUAR_ASSIGN_OR_RETURN(int64_t v, r->ReadI64());
      return Value::Int(v);
    }
    case TypeId::kDouble: {
      JAGUAR_ASSIGN_OR_RETURN(double v, r->ReadDouble());
      return Value::Double(v);
    }
    case TypeId::kString: {
      JAGUAR_ASSIGN_OR_RETURN(std::string s, r->ReadString());
      return Value::String(std::move(s));
    }
    case TypeId::kBytes: {
      JAGUAR_ASSIGN_OR_RETURN(Slice s, r->ReadLengthPrefixed());
      return Value::Bytes(s.ToVector());
    }
  }
  return Corruption("unknown value type tag");
}

Result<Tuple> ReferenceDeserialize(Slice bytes) {
  BufferReader r(bytes);
  JAGUAR_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  if (n > 1u << 20) return Corruption("implausible tuple arity");
  std::vector<Value> values;
  for (uint32_t i = 0; i < n; ++i) {
    JAGUAR_ASSIGN_OR_RETURN(Value v, ReferenceReadValue(&r));
    values.push_back(std::move(v));
  }
  if (!r.AtEnd()) return Corruption("trailing bytes after tuple");
  return Tuple(std::move(values));
}

/// Holds the mask decoder to the reference decoder's verdict and values on
/// `bytes`, whole and cut at `chunk` like an overflow record's first chunk.
void ExpectMaskDecoderAgrees(const std::vector<uint8_t>& bytes, size_t chunk,
                             const ColumnMask& mask, int round) {
  Result<Tuple> full = ReferenceDeserialize(Slice(bytes));
  Result<Tuple> all = Tuple::Deserialize(Slice(bytes));
  ASSERT_EQ(all.ok(), full.ok()) << "round " << round;
  if (all.ok()) {
    EXPECT_EQ(all->Serialize(), full->Serialize()) << "round " << round;
  }
  Tuple t;
  Result<bool> whole =
      Tuple::DecodeColumns(Slice(bytes), mask, /*prefix=*/false, &t);
  ASSERT_EQ(whole.ok(), full.ok()) << "round " << round;
  if (!full.ok()) {
    EXPECT_TRUE(full.status().IsCorruption()) << "round " << round;
    EXPECT_TRUE(whole.status().IsCorruption()) << "round " << round;
  } else {
    EXPECT_TRUE(*whole) << "round " << round;
    EXPECT_TRUE(MaskedEqual(*full, t, mask)) << "round " << round;
  }
  Result<Tuple> scan = DecodeAsScan(bytes, chunk, mask);
  if (full.ok()) {
    ASSERT_TRUE(scan.ok()) << "round " << round << ": "
                           << scan.status().ToString();
    EXPECT_TRUE(MaskedEqual(*full, *scan, mask)) << "round " << round;
  } else if (!scan.ok()) {
    EXPECT_TRUE(scan.status().IsCorruption()) << "round " << round;
  }
}

TEST(TupleCodecTest, RoundTripIsByteIdentical) {
  Random rng(0x7EA);
  Random mask_rng(0x3A5C);
  for (int i = 0; i < 2000; ++i) {
    std::vector<Value> values;
    size_t n = rng.Uniform(8);
    for (size_t j = 0; j < n; ++j) values.push_back(RandomValue(&rng));
    Tuple t(std::move(values));

    std::vector<uint8_t> bytes = t.Serialize();
    auto decoded = Tuple::Deserialize(Slice(bytes));
    ASSERT_TRUE(decoded.ok()) << "round " << i;
    EXPECT_EQ(decoded->Serialize(), bytes) << "round " << i;
    const ColumnMask mask = RandomMask(&mask_rng, n);
    ExpectMaskDecoderAgrees(bytes, 1 + mask_rng.Uniform(bytes.size()), mask,
                            i);

    if (!bytes.empty()) {
      size_t cut = rng.Uniform(bytes.size());
      EXPECT_FALSE(Tuple::Deserialize(Slice(bytes.data(), cut)).ok())
          << "round " << i << ": accepted a tuple cut to " << cut;
      Tuple partial;
      EXPECT_TRUE(Tuple::DecodeColumns(Slice(bytes.data(), cut), mask,
                                       /*prefix=*/false, &partial)
                      .status()
                      .IsCorruption())
          << "round " << i << ": mask decoder accepted a cut to " << cut;
    }
  }
}

TEST(TupleCodecTest, SingleBitFlipsGetTheReferenceVerdict) {
  Random rng(0xF11B);
  for (int i = 0; i < 5000; ++i) {
    std::vector<Value> values;
    size_t n = 1 + rng.Uniform(7);
    for (size_t j = 0; j < n; ++j) values.push_back(RandomValue(&rng));
    std::vector<uint8_t> bytes = Tuple(std::move(values)).Serialize();
    const size_t bit = rng.Uniform(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ExpectMaskDecoderAgrees(bytes, 1 + rng.Uniform(bytes.size()),
                            RandomMask(&rng, n), i);
  }
}

TEST(TupleCodecTest, OverflowSizedRecordsCutAtTheFirstChunk) {
  // Records longer than one overflow page, cut exactly where the heap cuts
  // an overflow record's first chunk: the chunk capacity of a page.
  constexpr size_t kChunk = kPageLsnOffset - 8;
  Random rng(0x0F10);
  for (int i = 0; i < 300; ++i) {
    std::vector<Value> values;
    size_t n = 1 + rng.Uniform(6);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Uniform(3) == 0) {
        values.push_back(Value::Bytes(rng.Bytes(2000 + rng.Uniform(12000))));
      } else {
        values.push_back(RandomValue(&rng));
      }
    }
    std::vector<uint8_t> bytes = Tuple(std::move(values)).Serialize();
    const ColumnMask mask = RandomMask(&rng, n);
    ExpectMaskDecoderAgrees(bytes, kChunk, mask, i);
    // The same record truncated, and with one bit flipped.
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + rng.Uniform(bytes.size()));
    ExpectMaskDecoderAgrees(cut, kChunk, mask, i);
    const size_t bit = rng.Uniform(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ExpectMaskDecoderAgrees(bytes, kChunk, mask, i);
  }
}

TEST(BatchCodecTest, CountsRoundTripAndImplausibleCountsAreRejected) {
  Random rng(0xFACE);
  for (int i = 0; i < kRounds; ++i) {
    uint32_t count = static_cast<uint32_t>(
        rng.Uniform(BatchCodec::kMaxCount + 1));
    BufferWriter w;
    BatchCodec::WriteCount(&w, count);
    BufferReader r(w.AsSlice());
    auto decoded = BatchCodec::ReadCount(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, count);
  }
  // Beyond the framing limit: corruption, not a loop bound.
  BufferWriter w;
  w.PutU32(BatchCodec::kMaxCount + 1);
  BufferReader r(w.AsSlice());
  EXPECT_FALSE(BatchCodec::ReadCount(&r).ok());
  // Truncated.
  BufferReader empty{Slice()};
  EXPECT_FALSE(BatchCodec::ReadCount(&empty).ok());
}

// ---------------------------------------------------------------------------
// net/protocol payloads.
// ---------------------------------------------------------------------------

UdfInfo RandomUdfInfo(Random* rng) {
  UdfInfo info;
  info.name = rng->AlphaString(1 + rng->Uniform(16));
  info.language = static_cast<UdfLanguage>(rng->Uniform(6));
  info.return_type = static_cast<TypeId>(rng->Uniform(6));
  size_t nargs = rng->Uniform(8);
  for (size_t i = 0; i < nargs; ++i) {
    info.arg_types.push_back(static_cast<TypeId>(rng->Uniform(6)));
  }
  info.impl_name = rng->AlphaString(rng->Uniform(24));
  info.payload = rng->Bytes(rng->Uniform(200));
  return info;
}

TEST(ProtocolCodecTest, UdfInfoRoundTripIsByteIdentical) {
  Random rng(0xAB1E);
  for (int i = 0; i < kRounds; ++i) {
    UdfInfo info = RandomUdfInfo(&rng);
    BufferWriter w;
    net::EncodeUdfInfo(info, &w);

    BufferReader r(w.AsSlice());
    auto decoded = net::DecodeUdfInfo(&r);
    ASSERT_TRUE(decoded.ok()) << "round " << i;
    ASSERT_TRUE(r.AtEnd());

    BufferWriter again;
    net::EncodeUdfInfo(*decoded, &again);
    EXPECT_EQ(again.buffer(), w.buffer()) << "round " << i;

    size_t cut = rng.Uniform(w.buffer().size());
    BufferReader short_r(Slice(w.buffer().data(), cut));
    EXPECT_FALSE(net::DecodeUdfInfo(&short_r).ok())
        << "round " << i << ": accepted a UdfInfo cut to " << cut;
  }
}

TEST(ProtocolCodecTest, QueryResultRoundTripIsByteIdentical) {
  Random rng(0xCAFE);
  for (int i = 0; i < 2000; ++i) {
    QueryResult result;
    std::vector<Column> cols;
    size_t ncols = rng.Uniform(5);
    for (size_t c = 0; c < ncols; ++c) {
      cols.push_back(Column{rng.AlphaString(1 + rng.Uniform(8)),
                            static_cast<TypeId>(1 + rng.Uniform(5))});
    }
    result.schema = Schema(std::move(cols));
    result.rows_affected = rng.Next();
    result.message = rng.AlphaString(rng.Uniform(32));
    size_t nrows = rng.Uniform(6);
    for (size_t j = 0; j < nrows; ++j) {
      std::vector<Value> values;
      size_t nvals = rng.Uniform(4);
      for (size_t v = 0; v < nvals; ++v) values.push_back(RandomValue(&rng));
      result.rows.emplace_back(std::move(values));
    }
    size_t nmetrics = rng.Uniform(4);
    for (size_t m = 0; m < nmetrics; ++m) {
      result.metrics_delta[rng.AlphaString(1 + rng.Uniform(12))] = rng.Next();
    }

    BufferWriter w;
    net::EncodeQueryResult(result, &w);
    BufferReader r(w.AsSlice());
    auto decoded = net::DecodeQueryResult(&r);
    ASSERT_TRUE(decoded.ok()) << "round " << i;
    ASSERT_TRUE(r.AtEnd());

    BufferWriter again;
    net::EncodeQueryResult(*decoded, &again);
    EXPECT_EQ(again.buffer(), w.buffer()) << "round " << i;

    if (!w.buffer().empty()) {
      size_t cut = rng.Uniform(w.buffer().size());
      BufferReader short_r(Slice(w.buffer().data(), cut));
      EXPECT_FALSE(net::DecodeQueryResult(&short_r).ok())
          << "round " << i << ": accepted a QueryResult cut to " << cut;
    }
  }
}

TEST(ProtocolCodecTest, StatusPayloadRoundTrips) {
  Random rng(0xFEED);
  for (int i = 0; i < 2000; ++i) {
    // Codes 1..12: a kOk Status carries no message, so only error payloads
    // make the round trip interesting.
    Status original(static_cast<StatusCode>(1 + rng.Uniform(12)),
                    rng.AlphaString(rng.Uniform(64)));
    BufferWriter w;
    net::EncodeStatusPayload(original, &w);
    BufferReader r(w.AsSlice());
    Status decoded = net::DecodeStatusPayload(&r);
    EXPECT_EQ(decoded.code(), original.code()) << "round " << i;
    EXPECT_EQ(decoded.message(), original.message()) << "round " << i;
  }
  BufferReader empty{Slice()};
  EXPECT_TRUE(net::DecodeStatusPayload(&empty).IsCorruption());
}

TEST(ProtocolCodecTest, CorruptedPayloadsNeverCrash) {
  Random rng(0xBAD);
  for (int i = 0; i < kRounds; ++i) {
    std::vector<uint8_t> junk = rng.Bytes(rng.Uniform(256));
    BufferReader r1{Slice(junk)};
    net::DecodeUdfInfo(&r1).ok();       // any Status is fine; crashing isn't
    BufferReader r2{Slice(junk)};
    net::DecodeQueryResult(&r2).ok();
    BufferReader r3{Slice(junk)};
    net::DecodeStatusPayload(&r3).ok();
    Tuple::Deserialize(Slice(junk)).ok();
  }
}

TEST(ProtocolCodecTest, SocketFramesRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Random rng(0xF00D);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> payload = rng.Bytes(rng.Uniform(4096));
    auto type = static_cast<net::FrameType>(1 + rng.Uniform(6));
    ASSERT_TRUE(net::WriteFrame(fds[0], type, Slice(payload)).ok());
    auto frame = net::ReadFrame(fds[1]);
    ASSERT_TRUE(frame.ok()) << "round " << i;
    EXPECT_EQ(frame->first, type);
    EXPECT_EQ(frame->second, payload);
  }
  // A frame cut off by a closed peer is an IoError, not a crash or a hang.
  std::vector<uint8_t> partial = {0x10, 0x00, 0x00, 0x00};  // length only
  ASSERT_EQ(::write(fds[0], partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  ::close(fds[0]);
  EXPECT_FALSE(net::ReadFrame(fds[1]).ok());
  ::close(fds[1]);
}

}  // namespace
}  // namespace jaguar
