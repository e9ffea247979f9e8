#include "fmf/nvm.hpp"

#include <algorithm>
#include <cstring>

#include "util/crc8.hpp"

namespace easis::fmf {

namespace {

// Bank layout: [magic u32 | seq u32 | len u32 | crc u8 | payload...].
// The CRC covers seq, len and the payload, so a stale header glued onto a
// different payload fails the check just like flipped payload bits.
constexpr std::uint32_t kMagic = 0x455A4E56;  // "EZNV"
constexpr std::size_t kHeaderBytes = 13;

// Field widths of the serialised records (see serialize_image).
constexpr std::size_t kStrBytes = 2;  // u16 length prefix
constexpr std::size_t kCountBytes = 2;
constexpr std::size_t kImageFixedBytes = 4 + 1;  // reset_count, storm
constexpr std::size_t kResetCauseFixedBytes = 1 + 4 + 4 + 1 + 8;
constexpr std::size_t kDtcFixedBytes = 4 + 1 + 4 + 8 + 8 + 1 + 1;
constexpr std::size_t kFreezeFrameFixedBytes = 8 + kCountBytes;
constexpr std::size_t kSignalFixedBytes = 8;
constexpr std::size_t kTransgressionFixedBytes = 4 + 8 + 8;

std::size_t str_size(const std::string& s) { return kStrBytes + s.size(); }

/// Appends to a caller-owned buffer, so a commit reuses its capacity.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u16(static_cast<std::uint16_t>(s.size()));
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

 private:
  std::vector<std::uint8_t>& bytes_;
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (pos_ >= size_) {
      ok_ = false;
      return 0;
    }
    return data_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint16_t n = u16();
    if (pos_ + n > size_) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

void serialize_image(const NvmImage& image, Writer& w) {
  w.u32(image.reset_count);
  w.u8(image.storm_latched ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(image.reset_history.size()));
  for (const ResetCause& cause : image.reset_history) {
    w.u8(static_cast<std::uint8_t>(cause.source));
    w.u32(cause.task.valid() ? cause.task.value() : ~0u);
    w.u32(cause.application.valid() ? cause.application.value() : ~0u);
    w.u8(static_cast<std::uint8_t>(cause.error));
    w.i64(cause.time.as_micros());
    w.str(cause.detail);
  }
  w.u16(static_cast<std::uint16_t>(image.dtcs.size()));
  for (const PersistedDtc& dtc : image.dtcs) {
    w.u32(dtc.key.application.valid() ? dtc.key.application.value() : ~0u);
    w.u8(static_cast<std::uint8_t>(dtc.key.type));
    w.u32(dtc.occurrences);
    w.i64(dtc.first_seen.as_micros());
    w.i64(dtc.last_seen.as_micros());
    w.u8(dtc.active ? 1 : 0);
    w.u8(dtc.freeze_frame ? 1 : 0);
    if (dtc.freeze_frame) {
      w.i64(dtc.freeze_frame->captured_at.as_micros());
      w.u16(static_cast<std::uint16_t>(dtc.freeze_frame->signals.size()));
      for (const auto& [name, value] : dtc.freeze_frame->signals) {
        w.str(name);
        w.f64(value);
      }
    }
  }
  w.u16(static_cast<std::uint16_t>(image.transgressions.size()));
  for (const wdg::TransgressionRecord& record : image.transgressions) {
    w.str(record.section);
    w.u32(record.count);
    w.i64(record.worst.as_micros());
    w.i64(record.last_at.as_micros());
  }
  w.str(image.power_mode);
}

TaskId read_task(std::uint32_t raw) {
  return raw == ~0u ? TaskId{} : TaskId(raw);
}
ApplicationId read_app(std::uint32_t raw) {
  return raw == ~0u ? ApplicationId{} : ApplicationId(raw);
}

std::optional<NvmImage> deserialize_image(const std::uint8_t* data,
                                          std::size_t size) {
  Reader r(data, size);
  NvmImage image;
  image.reset_count = r.u32();
  image.storm_latched = r.u8() != 0;
  const std::uint16_t history = r.u16();
  for (std::uint16_t i = 0; i < history && r.ok(); ++i) {
    ResetCause cause;
    cause.source = static_cast<ResetSource>(r.u8());
    cause.task = read_task(r.u32());
    cause.application = read_app(r.u32());
    cause.error = static_cast<wdg::ErrorType>(r.u8());
    cause.time = sim::SimTime(r.i64());
    cause.detail = r.str();
    image.reset_history.push_back(std::move(cause));
  }
  const std::uint16_t dtcs = r.u16();
  for (std::uint16_t i = 0; i < dtcs && r.ok(); ++i) {
    PersistedDtc dtc;
    dtc.key.application = read_app(r.u32());
    dtc.key.type = static_cast<wdg::ErrorType>(r.u8());
    dtc.occurrences = r.u32();
    dtc.first_seen = sim::SimTime(r.i64());
    dtc.last_seen = sim::SimTime(r.i64());
    dtc.active = r.u8() != 0;
    if (r.u8() != 0) {
      FreezeFrame frame;
      frame.captured_at = sim::SimTime(r.i64());
      const std::uint16_t signals = r.u16();
      for (std::uint16_t s = 0; s < signals && r.ok(); ++s) {
        std::string name = r.str();
        const double value = r.f64();
        frame.signals.emplace_back(std::move(name), value);
      }
      dtc.freeze_frame = std::move(frame);
    }
    image.dtcs.push_back(std::move(dtc));
  }
  const std::uint16_t transgressions = r.u16();
  for (std::uint16_t i = 0; i < transgressions && r.ok(); ++i) {
    wdg::TransgressionRecord record;
    record.section = r.str();
    record.count = r.u32();
    record.worst = sim::Duration::micros(r.i64());
    record.last_at = sim::SimTime(r.i64());
    image.transgressions.push_back(std::move(record));
  }
  image.power_mode = r.str();
  if (!r.ok()) return std::nullopt;
  return image;
}

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bank,
                          std::size_t offset) {
  return static_cast<std::uint32_t>(bank[offset]) |
         (static_cast<std::uint32_t>(bank[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(bank[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(bank[offset + 3]) << 24);
}

void write_u32_at(std::vector<std::uint8_t>& bank, std::size_t offset,
                  std::uint32_t v) {
  bank[offset] = static_cast<std::uint8_t>(v);
  bank[offset + 1] = static_cast<std::uint8_t>(v >> 8);
  bank[offset + 2] = static_cast<std::uint8_t>(v >> 16);
  bank[offset + 3] = static_cast<std::uint8_t>(v >> 24);
}

/// CRC over seq + len + payload (everything after the magic and CRC byte).
std::uint8_t bank_crc(const std::vector<std::uint8_t>& bank,
                      std::size_t payload_len) {
  const std::uint8_t crc_header = util::crc8_j1850(bank.data() + 4, 8);
  return util::crc8_j1850(bank.data() + kHeaderBytes, payload_len,
                         static_cast<std::uint8_t>(crc_header ^ 0xFF));
}

struct BankView {
  bool blank = true;
  bool valid = false;
  std::uint32_t seq = 0;
  std::size_t payload_len = 0;
};

BankView inspect(const std::vector<std::uint8_t>& bank,
                 std::size_t capacity) {
  BankView view;
  if (bank.size() < kHeaderBytes) return view;
  const std::uint32_t magic = read_u32_at(bank, 0);
  if (magic == 0) return view;  // never written
  view.blank = false;
  if (magic != kMagic) return view;
  view.seq = read_u32_at(bank, 4);
  const std::uint32_t len = read_u32_at(bank, 8);
  if (kHeaderBytes + len > capacity || kHeaderBytes + len > bank.size()) {
    return view;
  }
  view.payload_len = len;
  view.valid = bank_crc(bank, len) == bank[12];
  return view;
}

}  // namespace

std::size_t serialized_size(const FreezeFrame& frame) {
  std::size_t bytes = kFreezeFrameFixedBytes;
  for (const auto& signal : frame.signals) {
    bytes += str_size(signal.first) + kSignalFixedBytes;
  }
  return bytes;
}

std::size_t serialized_size(const PersistedDtc& dtc) {
  return kDtcFixedBytes +
         (dtc.freeze_frame ? serialized_size(*dtc.freeze_frame) : 0);
}

std::size_t serialized_size(const ResetCause& cause) {
  return kResetCauseFixedBytes + str_size(cause.detail);
}

std::size_t serialized_size(const NvmImage& image) {
  std::size_t bytes = kImageFixedBytes + 3 * kCountBytes +
                      str_size(image.power_mode);
  for (const ResetCause& cause : image.reset_history) {
    bytes += serialized_size(cause);
  }
  for (const PersistedDtc& dtc : image.dtcs) bytes += serialized_size(dtc);
  for (const wdg::TransgressionRecord& record : image.transgressions) {
    bytes += kTransgressionFixedBytes + str_size(record.section);
  }
  return bytes;
}

std::vector<std::uint8_t> serialize(const NvmImage& image) {
  std::vector<std::uint8_t> bytes;
  Writer w(bytes);
  serialize_image(image, w);
  return bytes;
}

NvmStore::NvmStore(std::size_t bank_capacity) : capacity_(bank_capacity) {
  banks_[0].assign(capacity_, 0);
  banks_[1].assign(capacity_, 0);
}

bool NvmStore::fits(std::size_t payload_bytes) const {
  return kHeaderBytes + payload_bytes <= capacity_;
}

bool NvmStore::commit(const NvmImage& image) {
  const std::size_t payload_len = serialized_size(image);
  if (!fits(payload_len)) {
    ++overflows_;
    return false;
  }
  const std::size_t target = 1 - active_;
  if (pending_faults_ > 0) {
    --pending_faults_;
    ++write_errors_;
    return false;
  }
  if (bank_worn(target)) {
    ++write_errors_;
    return false;
  }
  payload_.clear();
  Writer w(payload_);
  serialize_image(image, w);
  std::vector<std::uint8_t>& bank = banks_[target];
  write_u32_at(bank, 0, kMagic);
  write_u32_at(bank, 4, ++sequence_);
  write_u32_at(bank, 8, static_cast<std::uint32_t>(payload_len));
  std::memcpy(bank.data() + kHeaderBytes, payload_.data(), payload_len);
  // Every byte past the image reads zero, as after a full erase; only
  // bytes an earlier write (or an injected corruption) touched need it.
  const std::size_t used = kHeaderBytes + payload_len;
  if (dirty_[target] > used) {
    std::fill(bank.begin() + static_cast<std::ptrdiff_t>(used),
              bank.begin() + static_cast<std::ptrdiff_t>(dirty_[target]), 0);
  }
  dirty_[target] = used;
  bank[12] = bank_crc(bank, payload_len);
  active_ = target;  // flip only after the full write
  ++commits_;
  ++erase_cycles_[target];
  last_image_bytes_ = payload_len;
  return true;
}

NvmStore::LoadResult NvmStore::load() const {
  LoadResult result;
  BankView views[2] = {inspect(banks_[0], capacity_),
                       inspect(banks_[1], capacity_)};
  for (std::size_t i = 0; i < 2; ++i) {
    if (!views[i].blank && !views[i].valid) {
      result.corruption_detected = true;
      if (!result.detail.empty()) result.detail += "; ";
      result.detail += "NVM bank " + std::to_string(i) +
                       " failed CRC/format check";
    }
  }
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (views[i].valid && (best < 0 || views[i].seq > views[best].seq)) {
      best = i;
    }
  }
  if (best < 0) return result;  // blank or fully corrupted store
  const std::vector<std::uint8_t>& bank = banks_[best];
  result.image =
      deserialize_image(bank.data() + kHeaderBytes, views[best].payload_len);
  if (!result.image) {
    // CRC matched but the payload would not parse — treat as corruption.
    result.corruption_detected = true;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail +=
        "NVM bank " + std::to_string(best) + " payload malformed";
  } else if (result.corruption_detected) {
    result.detail += " (recovered from the other bank)";
  }
  return result;
}

void NvmStore::erase() {
  banks_[0].assign(capacity_, 0);
  banks_[1].assign(capacity_, 0);
  dirty_[0] = dirty_[1] = 0;
  active_ = 0;
  sequence_ = 0;
  last_image_bytes_ = 0;
  // A workshop "clear fault memory" erases both banks — it costs wear too.
  ++erase_cycles_[0];
  ++erase_cycles_[1];
}

bool NvmStore::bank_worn(std::size_t bank) const {
  return erase_budget_ > 0 && erase_cycles_[bank % 2] >= erase_budget_;
}

double NvmStore::wear_level() const {
  if (erase_budget_ == 0) return 0.0;
  const std::uint32_t worst = std::max(erase_cycles_[0], erase_cycles_[1]);
  const double level =
      static_cast<double>(worst) / static_cast<double>(erase_budget_);
  return level > 1.0 ? 1.0 : level;
}

double NvmStore::fill_level() const {
  if (last_image_bytes_ == 0 || capacity_ == 0) return 0.0;
  const double level =
      static_cast<double>(kHeaderBytes + last_image_bytes_) /
      static_cast<double>(capacity_);
  return level > 1.0 ? 1.0 : level;
}

void NvmStore::corrupt_bit(std::size_t bit_index) {
  std::vector<std::uint8_t>& bank = banks_[active_];
  dirty_[active_] = capacity_;
  const std::size_t byte = (bit_index / 8) % bank.size();
  bank[byte] ^= static_cast<std::uint8_t>(1u << (bit_index % 8));
}

void NvmStore::corrupt_byte(std::size_t bank, std::size_t offset,
                            std::uint8_t mask) {
  std::vector<std::uint8_t>& b = banks_[bank % 2];
  dirty_[bank % 2] = capacity_;
  b[offset % b.size()] ^= mask;
}

}  // namespace easis::fmf
