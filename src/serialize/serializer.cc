#include "serialize/serializer.hh"

#include <array>
#include <cstring>

namespace nuca {

void
Serializer::putU16(std::uint16_t v)
{
    putU8(static_cast<std::uint8_t>(v));
    putU8(static_cast<std::uint8_t>(v >> 8));
}

void
Serializer::putU32(std::uint32_t v)
{
    putU16(static_cast<std::uint16_t>(v));
    putU16(static_cast<std::uint16_t>(v >> 16));
}

void
Serializer::putU64(std::uint64_t v)
{
    putU32(static_cast<std::uint32_t>(v));
    putU32(static_cast<std::uint32_t>(v >> 32));
}

void
Serializer::putI64(std::int64_t v)
{
    putU64(static_cast<std::uint64_t>(v));
}

void
Serializer::putDouble(double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(const std::string &s)
{
    putU64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
Serializer::putVecU64(const std::vector<std::uint64_t> &v)
{
    putU64(v.size());
    for (const auto x : v)
        putU64(x);
}

void
Serializer::putVecDouble(const std::vector<double> &v)
{
    putU64(v.size());
    for (const auto x : v)
        putDouble(x);
}

void
Deserializer::need(std::size_t n)
{
    if (size_ - pos_ < n)
        throw CheckpointError("checkpoint truncated: need " +
                              std::to_string(n) + " bytes, " +
                              std::to_string(size_ - pos_) +
                              " remain");
}

std::uint8_t
Deserializer::getU8()
{
    need(1);
    return data_[pos_++];
}

std::uint16_t
Deserializer::getU16()
{
    const auto lo = getU8();
    const auto hi = getU8();
    return static_cast<std::uint16_t>(lo |
                                      static_cast<unsigned>(hi) << 8);
}

std::uint32_t
Deserializer::getU32()
{
    const std::uint32_t lo = getU16();
    const std::uint32_t hi = getU16();
    return lo | hi << 16;
}

std::uint64_t
Deserializer::getU64()
{
    const std::uint64_t lo = getU32();
    const std::uint64_t hi = getU32();
    return lo | hi << 32;
}

std::int64_t
Deserializer::getI64()
{
    return static_cast<std::int64_t>(getU64());
}

bool
Deserializer::getBool()
{
    const auto v = getU8();
    if (v > 1)
        throw CheckpointError("checkpoint corrupt: bool byte " +
                              std::to_string(v));
    return v != 0;
}

double
Deserializer::getDouble()
{
    const std::uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::getString()
{
    const std::uint64_t n = getU64();
    need(n);
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

void
Deserializer::expectTag(std::uint32_t expected, const char *what)
{
    const auto got = getU32();
    if (got != expected)
        throw CheckpointError(
            std::string("checkpoint section mismatch at ") + what);
}

std::uint64_t
Deserializer::getVecLength()
{
    // Compare by division: n * 8 wraps for a hostile n >= 2^61 and
    // would pass the bounds check, then fail in the allocation.
    const std::uint64_t n = getU64();
    if (n > remaining() / 8)
        throw CheckpointError("checkpoint truncated: vector of " +
                              std::to_string(n) + " words, " +
                              std::to_string(remaining()) +
                              " bytes remain");
    return n;
}

std::vector<std::uint64_t>
Deserializer::getVecU64()
{
    const std::uint64_t n = getVecLength();
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = getU64();
    return v;
}

std::vector<std::uint64_t>
Deserializer::getVecU64(std::size_t expected, const char *what)
{
    auto v = getVecU64();
    if (v.size() != expected)
        throw CheckpointError(std::string("checkpoint length "
                                          "mismatch at ") +
                              what + ": stored " +
                              std::to_string(v.size()) +
                              ", expected " +
                              std::to_string(expected));
    return v;
}

std::vector<double>
Deserializer::getVecDouble()
{
    const std::uint64_t n = getVecLength();
    std::vector<double> v(n);
    for (auto &x : v)
        x = getDouble();
    return v;
}

void
Deserializer::expectEnd(const char *what)
{
    if (!atEnd())
        throw CheckpointError(std::string(what) + ": " +
                              std::to_string(remaining()) +
                              " trailing bytes");
}

namespace {

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const auto table = makeCrcTable();
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

} // namespace nuca
