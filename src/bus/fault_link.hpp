// Shared per-bus network fault model.
//
// A FaultLink sits on the delivery path of a bus (CAN / FlexRay / LIN all
// consult it at the instant a frame would reach receivers) and decides,
// per frame, whether to corrupt it, lose it, delay it or duplicate it —
// the classic EMI / marginal-transceiver / overload failure modes.
// Probabilistic decisions draw from a seeded RNG so campaigns replay
// deterministically. A partition drops everything until lifted; a loss
// burst loses the next N frames (correlated errors, unlike the i.i.d.
// loss probability).
//
// The babbling-idiot flooder is the complementary *traffic* fault: a node
// that transmits nonsense at the highest priority, starving everyone else
// on an arbitrated bus. It drives a generic send callback so it can sit on
// any bus, though CAN (priority arbitration) is where it bites.
#pragma once

#include <cstdint>
#include <functional>

#include "bus/frame.hpp"
#include "sim/engine.hpp"
#include "util/random.hpp"

namespace easis::bus {

struct FaultLinkConfig {
  /// Per-frame probability of flipping one random payload bit.
  double corrupt_probability = 0.0;
  /// Per-frame probability of losing the frame (i.i.d.).
  double loss_probability = 0.0;
  /// Per-frame probability of delivering the frame twice.
  double duplicate_probability = 0.0;
  /// Extra delivery delay drawn uniformly from [0, max_delay_jitter].
  sim::Duration max_delay_jitter = sim::Duration::zero();
};

class FaultLink {
 public:
  /// What the bus should do with one frame about to be delivered.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    sim::Duration delay = sim::Duration::zero();
  };

  explicit FaultLink(std::uint64_t seed = 0x5AFEu) : rng_(seed) {}

  void set_config(FaultLinkConfig config) { config_ = config; }
  [[nodiscard]] const FaultLinkConfig& config() const { return config_; }

  /// Partition: everything is lost until lifted.
  void set_partitioned(bool partitioned) { partitioned_ = partitioned; }
  [[nodiscard]] bool partitioned() const { return partitioned_; }

  /// Loses the next `frames` deliveries (correlated burst, e.g. an EMI
  /// event spanning several frame times).
  void start_loss_burst(std::uint64_t frames) { burst_remaining_ = frames; }
  [[nodiscard]] std::uint64_t loss_burst_remaining() const {
    return burst_remaining_;
  }

  /// Decides the fate of one delivery; may corrupt `frame` in place.
  Verdict process(Frame& frame);

  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return corrupted_; }
  [[nodiscard]] std::uint64_t frames_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t frames_delayed() const { return delayed_; }

 private:
  util::Rng rng_;
  FaultLinkConfig config_;
  bool partitioned_ = false;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

struct BabblingIdiotConfig {
  /// Identifier the flooder transmits with; 0 dominates CAN arbitration.
  std::uint32_t frame_id = 0;
  /// Time between transmit attempts. On CAN anything at or below one
  /// frame time keeps the bus permanently contended.
  sim::Duration period = sim::Duration::micros(100);
  std::size_t payload_bytes = 8;
};

/// A failed node transmitting garbage at maximum priority. Constructed
/// with the send primitive of whatever bus it babbles on.
class BabblingIdiot {
 public:
  BabblingIdiot(sim::Engine& engine, std::function<void(Frame)> send,
                BabblingIdiotConfig config = {});

  void start();
  void stop();
  [[nodiscard]] bool babbling() const { return babbling_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return sent_; }

 private:
  sim::Engine& engine_;
  std::function<void(Frame)> send_;
  BabblingIdiotConfig config_;
  bool babbling_ = false;
  sim::Timer timer_;
  std::uint64_t sent_ = 0;

  void babble();
};

}  // namespace easis::bus
