/**
 * @file
 * Binary serialization primitives for simulator checkpoints: a
 * Serializer that appends fixed little-endian encodings to a growable
 * byte buffer and a bounds-checked Deserializer that reads them back.
 *
 * This layer deliberately has no dependency on the rest of the
 * simulator (not even logging) so the lowest-level libraries can link
 * against it; all failures are reported by throwing CheckpointError.
 */

#ifndef NUCA_SERIALIZE_SERIALIZER_HH
#define NUCA_SERIALIZE_SERIALIZER_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace nuca {

/**
 * Any failure in checkpoint encoding, decoding, or I/O. Callers
 * either surface the message (explicit restores must refuse to
 * produce a wrong result) or catch it and fall back to simulating
 * from scratch (cache lookups).
 */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Appends values to a growable byte buffer in a fixed little-endian
 * wire format, so checkpoints are byte-identical across platforms.
 */
class Serializer
{
  public:
    void putU8(std::uint8_t v) { buf_.push_back(v); }
    void putU16(std::uint16_t v);
    void putU32(std::uint32_t v);
    void putU64(std::uint64_t v);
    void putI64(std::int64_t v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    /** IEEE-754 bit pattern; restoring reproduces the exact bits. */
    void putDouble(double v);
    void putString(const std::string &s);

    /**
     * A section marker. Tags cost four bytes each but catch encoder/
     * decoder drift immediately instead of as garbled state later.
     */
    void putTag(std::uint32_t tag) { putU32(tag); }

    void putVecU64(const std::vector<std::uint64_t> &v);
    void putVecDouble(const std::vector<double> &v);

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Reads the Serializer wire format back out of a byte range. Every
 * read is bounds-checked; running off the end or failing a tag or
 * value check throws CheckpointError rather than fabricating state.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit Deserializer(const std::vector<std::uint8_t> &bytes)
        : Deserializer(bytes.data(), bytes.size())
    {}

    std::uint8_t getU8();
    std::uint16_t getU16();
    std::uint32_t getU32();
    std::uint64_t getU64();
    std::int64_t getI64();
    bool getBool();
    double getDouble();
    std::string getString();

    /** Read a tag and fail loudly if it is not @p expected. */
    void expectTag(std::uint32_t expected, const char *what);

    std::vector<std::uint64_t> getVecU64();
    std::vector<double> getVecDouble();

    /**
     * getVecU64 that additionally requires the stored length to be
     * @p expected — for fixed-geometry tables whose size is implied
     * by the (already hash-matched) configuration.
     */
    std::vector<std::uint64_t> getVecU64(std::size_t expected,
                                         const char *what);

    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Fail unless every byte has been consumed. */
    void expectEnd(const char *what);

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;

    void need(std::size_t n);
    /** Read a vector length, rejecting one the remaining bytes
     * cannot hold at eight bytes per element. */
    std::uint64_t getVecLength();
};

/** CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/** Build a four-byte section tag from a literal like "CORE". */
constexpr std::uint32_t
fourcc(const char (&s)[5])
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[1])) << 8 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[2])) << 16 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(s[3])) << 24;
}

} // namespace nuca

#endif // NUCA_SERIALIZE_SERIALIZER_HH
