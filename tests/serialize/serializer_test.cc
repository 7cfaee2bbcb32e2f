/**
 * @file
 * The serialization wire format and the on-disk checkpoint
 * container: primitive round-trips, bounds checking, and every
 * refusal path of the file header (magic, version, config hash,
 * CRC, truncation, trailing bytes).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "serialize/checkpoint_io.hh"
#include "serialize/serializer.hh"

namespace {

using namespace nuca;

TEST(Serializer, PrimitivesRoundTrip)
{
    Serializer s;
    s.putU8(0xab);
    s.putU16(0xbeef);
    s.putU32(0xdeadbeefu);
    s.putU64(0x0123456789abcdefull);
    s.putI64(-42);
    s.putBool(true);
    s.putBool(false);
    s.putDouble(3.14159);
    s.putDouble(-0.0);
    s.putString("hello checkpoint");
    s.putString("");

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getU8(), 0xab);
    EXPECT_EQ(d.getU16(), 0xbeef);
    EXPECT_EQ(d.getU32(), 0xdeadbeefu);
    EXPECT_EQ(d.getU64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.getI64(), -42);
    EXPECT_TRUE(d.getBool());
    EXPECT_FALSE(d.getBool());
    EXPECT_EQ(d.getDouble(), 3.14159);
    const double neg_zero = d.getDouble();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(d.getString(), "hello checkpoint");
    EXPECT_EQ(d.getString(), "");
    EXPECT_TRUE(d.atEnd());
    EXPECT_NO_THROW(d.expectEnd("test payload"));
}

TEST(Serializer, LittleEndianLayout)
{
    Serializer s;
    s.putU32(0x04030201u);
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s.bytes()[0], 1);
    EXPECT_EQ(s.bytes()[1], 2);
    EXPECT_EQ(s.bytes()[2], 3);
    EXPECT_EQ(s.bytes()[3], 4);
}

TEST(Serializer, ExtremeIntegers)
{
    Serializer s;
    s.putU64(std::numeric_limits<std::uint64_t>::max());
    s.putI64(std::numeric_limits<std::int64_t>::min());
    s.putDouble(std::numeric_limits<double>::infinity());

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getU64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(d.getI64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(d.getDouble(),
              std::numeric_limits<double>::infinity());
}

TEST(Serializer, VectorsRoundTrip)
{
    Serializer s;
    const std::vector<std::uint64_t> u = {1, 2, 0xffffffffffull};
    const std::vector<double> f = {0.5, -1.25, 1e300};
    s.putVecU64(u);
    s.putVecDouble(f);
    s.putVecU64({});

    Deserializer d(s.bytes());
    EXPECT_EQ(d.getVecU64(), u);
    EXPECT_EQ(d.getVecDouble(), f);
    EXPECT_TRUE(d.getVecU64().empty());
}

TEST(Serializer, ExpectedLengthVectorMismatchThrows)
{
    Serializer s;
    s.putVecU64({1, 2, 3});
    Deserializer d(s.bytes());
    EXPECT_THROW(d.getVecU64(4, "fixed table"), CheckpointError);
}

TEST(Serializer, ReadPastEndThrows)
{
    Serializer s;
    s.putU32(7);
    Deserializer d(s.bytes());
    d.getU16();
    EXPECT_THROW(d.getU32(), CheckpointError);
}

TEST(Serializer, TagMismatchThrows)
{
    Serializer s;
    s.putTag(fourcc("AAAA"));
    Deserializer d(s.bytes());
    EXPECT_THROW(d.expectTag(fourcc("BBBB"), "section"),
                 CheckpointError);
}

TEST(Serializer, BadBoolThrows)
{
    Serializer s;
    s.putU8(2);
    Deserializer d(s.bytes());
    EXPECT_THROW(d.getBool(), CheckpointError);
}

TEST(Serializer, ExpectEndWithLeftoverThrows)
{
    Serializer s;
    s.putU8(0);
    Deserializer d(s.bytes());
    EXPECT_THROW(d.expectEnd("payload"), CheckpointError);
}

TEST(Serializer, HostileVectorLengthThrows)
{
    // 2^61 + 1 elements times eight bytes wraps to 8: the length must
    // be checked against the remaining bytes without multiplying.
    Serializer s;
    s.putU64((std::uint64_t{1} << 61) + 1);
    for (int i = 0; i < 4; ++i)
        s.putU64(0);
    Deserializer u(s.bytes());
    EXPECT_THROW(u.getVecU64(), CheckpointError);
    Deserializer f(s.bytes());
    EXPECT_THROW(f.getVecDouble(), CheckpointError);
}

TEST(Crc32, KnownVector)
{
    // The classic check value: crc32("123456789") = 0xcbf43926.
    const char *text = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(text), 9),
              0xcbf43926u);
}

class CheckpointIoTest : public ::testing::Test
{
  protected:
    std::string
    path() const
    {
        return ::testing::TempDir() + "ckpt_io_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".ckpt";
    }

    void
    TearDown() override
    {
        std::remove(path().c_str());
    }

    std::vector<std::uint8_t> payload_ = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint64_t hash_ = 0x1122334455667788ull;
};

TEST_F(CheckpointIoTest, RoundTrip)
{
    writeCheckpointFile(path(), hash_, payload_);
    EXPECT_TRUE(checkpointFileExists(path()));
    EXPECT_EQ(readCheckpointFile(path(), hash_), payload_);
}

TEST_F(CheckpointIoTest, MissingFileThrows)
{
    EXPECT_FALSE(checkpointFileExists(path()));
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongConfigHashRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    EXPECT_THROW(readCheckpointFile(path(), hash_ + 1),
                 CheckpointError);
}

TEST_F(CheckpointIoTest, CorruptPayloadFailsCrc)
{
    writeCheckpointFile(path(), hash_, payload_);
    // Flip one payload byte (the payload follows the fixed header).
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\xff');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongMagicRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, WrongVersionRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    // The version field sits right after the 4-byte magic.
    std::fstream f(path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    f.put('\x7f');
    f.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, TruncatedFileRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::ifstream in(path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path(),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 3));
    out.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, TrailingBytesRefused)
{
    writeCheckpointFile(path(), hash_, payload_);
    std::ofstream out(path(),
                      std::ios::binary | std::ios::app);
    out.put('Z');
    out.close();
    EXPECT_THROW(readCheckpointFile(path(), hash_), CheckpointError);
}

TEST_F(CheckpointIoTest, EmptyPayloadRoundTrips)
{
    writeCheckpointFile(path(), hash_, {});
    EXPECT_TRUE(readCheckpointFile(path(), hash_).empty());
}

} // namespace
