#include "harness/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "profile/profiler.hpp"
#include "telemetry/event_bus.hpp"
#include "util/random.hpp"

namespace easis::harness {

namespace {

using Clock = std::chrono::steady_clock;

Clock::rep now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

/// Events a quarantined run keeps: the tail of its log, its flight record.
constexpr std::size_t kFlightEvents = 256;

}  // namespace

namespace {

// All campaign-scoped state lives here and is co-owned by every worker
// thread, so an abandoned (detached) worker that settles late touches
// valid memory even after run() has returned.
struct CampaignState {
  struct Worker {
    std::thread thread;
    /// Set by the supervisor when the worker's current run timed out; the
    /// worker stops pulling work once it notices.
    std::atomic<bool> cancel{false};
    /// run_index currently executing, or kIdle.
    std::atomic<std::size_t> current_run{kIdle};
    /// steady_clock time the current run started, as ns-since-epoch rep.
    std::atomic<Clock::rep> started_ns{0};
    bool abandoned = false;

    /// Per-run telemetry capture. The bus sink and the supervisor's
    /// quarantine snapshot both take `telemetry_mutex`, so the log tail of
    /// a hung run can be copied out while the run is still emitting. Only
    /// the worker itself resets/harvests between runs.
    std::mutex telemetry_mutex;
    telemetry::EventBus bus;
    telemetry::EventLog event_log;
    /// Latest post-mortem note of the current run (see
    /// RunResult::flight_note); shares telemetry_mutex so the supervisor
    /// can snapshot it together with the log tail.
    std::string flight_note;
    bool bus_wired = false;

    /// Worker ordinal in spawn order — the trace export's track id.
    unsigned ordinal = 0;
    /// Per-worker hot-path profiler; installed around each run only when
    /// the campaign runs with config.profile. Touched by this worker
    /// alone, so no lock.
    std::optional<profile::Profiler> profiler;
  };

  CampaignConfig config;
  CampaignRunner::RunFn fn;
  std::vector<RunSpec> specs;

  std::atomic<std::size_t> next{0};
  /// Set on the first failed verdict when config.fail_fast; claimed-but-
  /// not-started runs settle as kRunSkipped once it is up.
  std::atomic<bool> stop{false};
  std::vector<RunResult> results;
  std::vector<char> settled;
  std::size_t completed = 0;
  std::size_t timeouts = 0;
  std::size_t errors = 0;
  std::size_t skipped = 0;
  std::mutex results_mutex;
  std::condition_variable all_done;

  std::vector<std::unique_ptr<Worker>> workers;
  std::mutex workers_mutex;

  /// First writer wins; later attempts for the same run are discarded
  /// (that is the quarantine: a timed-out run's late result never lands).
  bool settle(std::size_t run_index, RunResult result) {
    std::lock_guard<std::mutex> lock(results_mutex);
    if (settled[run_index] != 0) return false;
    settled[run_index] = 1;
    if (result.status == RunStatus::kRunTimeout) ++timeouts;
    if (result.status == RunStatus::kRunError) ++errors;
    if (result.status == RunStatus::kRunSkipped) ++skipped;
    if (config.fail_fast && result.status != RunStatus::kRunSkipped &&
        (result.status != RunStatus::kRunOk || !result.misdetect.empty())) {
      stop.store(true, std::memory_order_release);
    }
    results[run_index] = std::move(result);
    ++completed;
    if (completed == settled.size()) all_done.notify_all();
    return true;
  }
};

void worker_main(const std::shared_ptr<CampaignState>& state,
                 CampaignState::Worker* self);

/// Caller must hold state->workers_mutex.
void spawn_worker_locked(const std::shared_ptr<CampaignState>& state) {
  auto worker = std::make_unique<CampaignState::Worker>();
  auto* raw = worker.get();
  raw->ordinal = static_cast<unsigned>(state->workers.size());
  if (state->config.profile) {
    profile::Profiler::Config pconfig;
    pconfig.ring_capacity = state->config.profile_ring_capacity;
    raw->profiler.emplace(pconfig);
  }
  state->workers.push_back(std::move(worker));
  raw->thread = std::thread([state, raw] { worker_main(state, raw); });
}

void worker_main(const std::shared_ptr<CampaignState>& state,
                 CampaignState::Worker* self) {
  while (!self->cancel.load(std::memory_order_acquire)) {
    const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->specs.size()) break;

    if (state->stop.load(std::memory_order_acquire)) {
      // --fail-fast tripped: drain the remaining queue as skipped so the
      // campaign still settles every index (and run() can return).
      RunResult skipped;
      skipped.status = RunStatus::kRunSkipped;
      skipped.error = "skipped by --fail-fast";
      state->settle(i, std::move(skipped));
      continue;
    }

    {
      // Fresh telemetry per run: seq restarts at 0 and the correlation
      // state clears, so the captured log depends only on the run itself
      // (the determinism contract across --jobs values).
      std::lock_guard<std::mutex> lock(self->telemetry_mutex);
      self->bus.reset();
      self->event_log.clear();
      self->flight_note.clear();
      if (!self->bus_wired) {
        self->bus_wired = true;
        self->bus.add_sink([self](const telemetry::Event& event) {
          std::lock_guard<std::mutex> sink_lock(self->telemetry_mutex);
          self->event_log.push_back(event);
        });
      }
    }

    // started_ns is published before current_run so the supervisor's
    // acquire-load of current_run always sees a matching start time.
    self->started_ns.store(now_ns(), std::memory_order_relaxed);
    self->current_run.store(i, std::memory_order_release);

    // Fresh profiler state per run; the scope uninstalls before harvest so
    // nothing records while the profile is being resolved. Exceptions are
    // fine: ScopedSpans close during unwinding, leaving the stack empty.
    std::optional<profile::ProfileScope> profile_scope;
    if (self->profiler.has_value()) {
      self->profiler->begin_run();
      profile_scope.emplace(*self->profiler);
    }

    RunResult result;
    try {
      telemetry::EventScope scope(self->bus);
      result = state->fn(RunContext(
          state->specs[i], self->cancel, [self](std::string note) {
            std::lock_guard<std::mutex> note_lock(self->telemetry_mutex);
            self->flight_note = std::move(note);
          }));
    } catch (const std::exception& e) {
      result = RunResult{};
      result.status = RunStatus::kRunError;
      result.error = e.what();
    } catch (...) {
      result = RunResult{};
      result.status = RunStatus::kRunError;
      result.error = "unknown exception";
    }

    if (profile_scope.has_value()) {
      profile_scope.reset();
      result.profile = self->profiler->harvest_run(self->ordinal);
    }

    {
      // Completed (or errored) runs carry their full event log; a
      // quarantined run's late log is discarded with its result.
      std::lock_guard<std::mutex> lock(self->telemetry_mutex);
      // Results live until the campaign's exports, so each gets an
      // exact-size copy (copy construction allocates no growth slack); the
      // worker's log keeps its capacity for the next run.
      result.events = telemetry::EventLog(self->event_log);
      self->event_log.clear();
      if (result.flight_note.empty()) result.flight_note = self->flight_note;
    }

    self->current_run.store(kIdle, std::memory_order_release);
    state->settle(i, std::move(result));
  }
}

void supervisor_main(const std::shared_ptr<CampaignState>& state) {
  const auto deadline_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               state->config.run_deadline)
                               .count();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(state->results_mutex);
      if (state->all_done.wait_for(
              lock, state->config.supervisor_poll,
              [&] { return state->completed == state->specs.size(); })) {
        return;
      }
    }

    std::lock_guard<std::mutex> workers_lock(state->workers_mutex);
    // Index loop: spawn_worker_locked() below grows the vector.
    const std::size_t worker_count = state->workers.size();
    for (std::size_t w = 0; w < worker_count; ++w) {
      auto* worker = state->workers[w].get();
      if (worker->abandoned) continue;
      const std::size_t run =
          worker->current_run.load(std::memory_order_acquire);
      if (run == kIdle) continue;
      const auto started = worker->started_ns.load(std::memory_order_relaxed);
      if (now_ns() - started < deadline_ns) continue;

      // Quarantine: settle the run as a timeout (the worker's own late
      // result, if it ever arrives, loses the first-writer race), stop the
      // worker from pulling more work, and backfill the pool if unclaimed
      // work remains.
      RunResult timed_out;
      timed_out.status = RunStatus::kRunTimeout;
      timed_out.error =
          "exceeded run deadline on '" + state->specs[run].label + "'";
      {
        // The hung run never returns its log; the tail of what it emitted
        // so far is the only record of what it was doing. Copy it before
        // the settle so the dump lands in the quarantined result.
        std::lock_guard<std::mutex> tlock(worker->telemetry_mutex);
        timed_out.events = worker->event_log.tail(kFlightEvents);
        timed_out.events_truncated = worker->event_log.size() > kFlightEvents;
        // Last note the hung run published (e.g. its resource snapshot):
        // the only post-mortem state beyond the log tail.
        timed_out.flight_note = worker->flight_note;
      }
      worker->cancel.store(true, std::memory_order_release);
      worker->abandoned = true;
      state->settle(run, std::move(timed_out));
      if (state->next.load(std::memory_order_relaxed) <
          state->specs.size()) {
        spawn_worker_locked(state);
      }
    }
  }
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignConfig config, RunFn fn)
    : config_(config), fn_(std::move(fn)) {
  config_.jobs = std::max(1u, config_.jobs);
  if (config_.supervisor_poll <= std::chrono::milliseconds::zero()) {
    config_.supervisor_poll = std::chrono::milliseconds(2);
  }
}

std::vector<RunSpec> CampaignRunner::make_specs(std::size_t count,
                                                std::uint64_t campaign_seed) {
  std::vector<RunSpec> specs(count);
  for (std::size_t i = 0; i < count; ++i) {
    specs[i].run_index = i;
    specs[i].seed = util::derive_seed(campaign_seed, i);
  }
  return specs;
}

CampaignOutcome CampaignRunner::run(const std::vector<RunSpec>& specs) {
  const std::size_t n = specs.size();
  auto state = std::make_shared<CampaignState>();
  state->config = config_;
  state->fn = fn_;
  state->specs = specs;
  state->results.assign(n, RunResult{});
  state->settled.assign(n, 0);

  const auto wall_start = Clock::now();
  const std::int64_t start_ns = now_ns();

  if (n > 0) {
    {
      std::lock_guard<std::mutex> lock(state->workers_mutex);
      const auto pool = std::min<std::size_t>(config_.jobs, n);
      for (std::size_t i = 0; i < pool; ++i) spawn_worker_locked(state);
    }

    std::thread supervisor;
    if (config_.run_deadline > std::chrono::milliseconds::zero()) {
      supervisor = std::thread([state] { supervisor_main(state); });
    }

    {
      std::unique_lock<std::mutex> lock(state->results_mutex);
      state->all_done.wait(lock, [&] { return state->completed == n; });
    }
    if (supervisor.joinable()) supervisor.join();

    // Healthy workers exit once the queue drains; abandoned ones exit when
    // their cancelled run returns (cooperative runs poll cancelled()).
    // Truly wedged runs need detach_abandoned_workers; the detached thread
    // keeps the shared State alive, so its late settle is discarded safely.
    std::lock_guard<std::mutex> lock(state->workers_mutex);
    for (auto& worker : state->workers) {
      if (!worker->thread.joinable()) continue;
      if (worker->abandoned && config_.detach_abandoned_workers) {
        worker->thread.detach();
      } else {
        worker->thread.join();
      }
    }
  }

  CampaignOutcome outcome;
  {
    // Detached stragglers may still hold the state; harvesting under the
    // lock keeps their (discarded) settle attempts race-free.
    std::lock_guard<std::mutex> lock(state->results_mutex);
    outcome.results = std::move(state->results);
    outcome.timeouts = state->timeouts;
    outcome.errors = state->errors;
    outcome.skipped = state->skipped;
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();
  outcome.start_ns = start_ns;
  return outcome;
}

}  // namespace easis::harness
