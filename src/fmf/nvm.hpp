// Simulated non-volatile fault memory (reset-safe fault memory extension).
//
// The paper's fault-treatment chain ends at "ECU software reset" (§3.3);
// a production ECU additionally persists the evidence of *why* it reset.
// NvmStore models the flash/EEPROM block that carries the DTC store,
// freeze frames, restart/reset counters and the reset-cause record across
// ECU software resets (cf. watchdogd's reset-reason backend):
//
//   - two banks (double-buffered commit): a commit always serialises into
//     the currently *inactive* bank and flips only after the write
//     completed, so a corruption of one bank never loses both images;
//   - every bank is CRC-8 protected (same SAE J1850 polynomial the E2E
//     layer uses); a failed check is detected and surfaced as an
//     ErrorType::kNvmCorruption fault, never silently consumed;
//   - load() picks the valid bank with the newest sequence number and
//     reports whether it had to fall back past a corrupted bank.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fmf/dtc.hpp"
#include "sim/time.hpp"
#include "util/ids.hpp"
#include "wdg/types.hpp"

namespace easis::fmf {

/// Who pulled the reset trigger.
enum class ResetSource : std::uint8_t {
  kNone = 0,
  /// FMF treatment: global ECU state faulty -> software reset (paper §3.3).
  kEcuFaulty = 1,
  /// The hardware watchdog expired: the software watchdog itself was hung,
  /// starved or sequence-corrupted (self-supervision layer).
  kHardwareWatchdog = 2,
  /// Post-reset recovery validation failed inside the warm-up window.
  kRecoveryFailure = 3,
  /// Commanded over the diagnostic protocol (UDS-lite ECUReset, 0x11).
  kDiagnosticRequest = 4,
  /// The thermal-derating ladder reached its shutdown stage: controlled
  /// shutdown into the persistent safe state (environmental supervision).
  kThermalShutdown = 5,
  /// A dependability policy selected TreatmentAction::kSafeState for a
  /// faulty application: controlled park into the persistent safe state.
  kPolicySafeState = 6,
};

[[nodiscard]] constexpr std::string_view to_string(ResetSource s) {
  switch (s) {
    case ResetSource::kNone: return "none";
    case ResetSource::kEcuFaulty: return "ecu_faulty";
    case ResetSource::kHardwareWatchdog: return "hw_watchdog";
    case ResetSource::kRecoveryFailure: return "recovery_failure";
    case ResetSource::kDiagnosticRequest: return "diag_request";
    case ResetSource::kThermalShutdown: return "thermal_shutdown";
    case ResetSource::kPolicySafeState: return "policy_safe_state";
  }
  return "?";
}

/// One persisted reset event: which task/application/error class drove the
/// decision, at what simulation time.
struct ResetCause {
  ResetSource source = ResetSource::kNone;
  TaskId task;
  ApplicationId application;
  wdg::ErrorType error = wdg::ErrorType::kAliveness;
  sim::SimTime time;
  std::string detail;
};

/// A persisted DTC entry is the live entry itself: it carries no signal-bus
/// dependency, and its freeze frame travels with it.
using PersistedDtc = DtcEntry;

/// The logical content of the NVM block.
struct NvmImage {
  /// Lifetime ECU software-reset counter.
  std::uint32_t reset_count = 0;
  /// Reboot-storm latch: once set, the FMF refuses further resets and the
  /// node stays in its limp-home/safe state until the memory is erased.
  bool storm_latched = false;
  /// Most recent reset causes, oldest first (bounded by kResetHistoryDepth).
  std::vector<ResetCause> reset_history;
  /// Diagnostic trouble codes incl. freeze frames.
  std::vector<PersistedDtc> dtcs;
  /// Deadline-transgression records of the supervised-process client API
  /// (never evicted: like the reset chain, they explain field behaviour).
  std::vector<wdg::TransgressionRecord> transgressions;
  /// Last committed power mode of a duty-cycled node (empty = no mode
  /// machine): a node resetting out of deep sleep re-seeds its mode
  /// machine from this instead of defaulting into Run, so supervision
  /// re-arms with the silence contract still in force.
  std::string power_mode;
};

/// Reset events retained in the history ring.
inline constexpr std::size_t kResetHistoryDepth = 16;

/// Exact serialised sizes in bytes, in closed form over the fixed field
/// widths plus 2 + length per string; serialized_size(image) equals
/// serialize(image).size(). The part overloads let a caller price an
/// eviction without re-serialising: a DTC's size includes its freeze frame.
[[nodiscard]] std::size_t serialized_size(const FreezeFrame& frame);
[[nodiscard]] std::size_t serialized_size(const PersistedDtc& dtc);
[[nodiscard]] std::size_t serialized_size(const ResetCause& cause);
[[nodiscard]] std::size_t serialized_size(const NvmImage& image);

/// The payload bytes a commit writes for `image` (bank header excluded).
[[nodiscard]] std::vector<std::uint8_t> serialize(const NvmImage& image);

class NvmStore {
 public:
  struct LoadResult {
    std::optional<NvmImage> image;
    /// True when at least one non-blank bank failed its CRC/format check.
    bool corruption_detected = false;
    std::string detail;
  };

  explicit NvmStore(std::size_t bank_capacity = 8192);

  /// Serialises `image` into the inactive bank and flips the active bank.
  /// Returns false (and leaves the store untouched) if the image does not
  /// fit the bank capacity (counted as an overflow, decided by its size
  /// alone), if the target bank has worn out its erase-cycle budget, or if
  /// an injected write fault is pending (both counted as write errors).
  bool commit(const NvmImage& image);

  /// True if a payload of `payload_bytes` fits one bank with its header.
  [[nodiscard]] bool fits(std::size_t payload_bytes) const;
  /// Counts `count` oversize images as overflows without offering them:
  /// a caller that sizes its image before committing reports the commits
  /// it pre-empted, so overflows() reads as if each had been attempted.
  void count_overflows(std::uint32_t count) { overflows_ += count; }

  /// Validates both banks and deserialises the newest valid image.
  [[nodiscard]] LoadResult load() const;

  /// Clears both banks (workshop "clear fault memory").
  void erase();

  // --- wear model --------------------------------------------------------------
  /// Erase cycles each bank survives before writes to it start failing
  /// (0 = unlimited, the default). Every successful commit erases the
  /// target bank once; erase() cycles both banks.
  void set_erase_budget(std::uint32_t cycles) { erase_budget_ = cycles; }
  [[nodiscard]] std::uint32_t erase_budget() const { return erase_budget_; }
  [[nodiscard]] std::uint32_t erase_cycles(std::size_t bank) const {
    return erase_cycles_[bank % 2];
  }
  [[nodiscard]] bool bank_worn(std::size_t bank) const;
  /// Worst-bank erase-cycle share of the budget, 0..1 (0 when unlimited).
  [[nodiscard]] double wear_level() const;

  // --- fault injection surface -------------------------------------------------
  /// Flips one bit of the active bank (models a flash/EEPROM bit error).
  void corrupt_bit(std::size_t bit_index);
  /// XORs one byte of the given bank.
  void corrupt_byte(std::size_t bank, std::size_t offset, std::uint8_t mask);
  /// The next `count` commits fail as write errors (transient flash
  /// faults; distinct from capacity overflows).
  void inject_write_faults(std::uint32_t count) { pending_faults_ += count; }

  // --- introspection -----------------------------------------------------------
  [[nodiscard]] std::size_t bank_capacity() const { return capacity_; }
  [[nodiscard]] std::size_t active_bank() const { return active_; }
  [[nodiscard]] std::uint32_t commits() const { return commits_; }
  [[nodiscard]] std::uint32_t overflows() const { return overflows_; }
  [[nodiscard]] std::uint32_t write_errors() const { return write_errors_; }
  /// Journal fill: header + last committed payload over the bank
  /// capacity, 0..1 (0 before the first successful commit).
  [[nodiscard]] double fill_level() const;
  [[nodiscard]] std::size_t last_image_bytes() const {
    return last_image_bytes_;
  }
  /// Raw content of one bank (header, payload and zeroed tail).
  [[nodiscard]] const std::vector<std::uint8_t>& bank_bytes(
      std::size_t bank) const {
    return banks_[bank % 2];
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint8_t> banks_[2];
  /// Per bank: bytes from the start that may be non-zero. A commit zeroes
  /// only the stale tail past its own image instead of the whole bank.
  std::size_t dirty_[2] = {0, 0};
  /// Serialisation buffer, reused across commits.
  std::vector<std::uint8_t> payload_;
  std::size_t active_ = 0;
  std::uint32_t sequence_ = 0;
  std::uint32_t commits_ = 0;
  std::uint32_t overflows_ = 0;
  std::uint32_t write_errors_ = 0;
  std::uint32_t erase_budget_ = 0;
  std::uint32_t erase_cycles_[2] = {0, 0};
  std::uint32_t pending_faults_ = 0;
  std::size_t last_image_bytes_ = 0;
};

}  // namespace easis::fmf
