#include "diag/server.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/event_bus.hpp"
#include "wdg/env_monitor.hpp"
#include "wdg/process_supervisor.hpp"

namespace easis::diag {

namespace {

void emit_event(sim::SimTime now, telemetry::EventKind kind,
                std::string detail) {
  if (!telemetry::enabled()) return;
  telemetry::Event event;
  event.time = now;
  event.component = telemetry::Component::kDiag;
  event.kind = kind;
  event.detail = std::move(detail);
  telemetry::emit(std::move(event));
}

}  // namespace

DiagServer::DiagServer(sim::Engine& engine, bus::CanBus& can,
                       DiagBackend backend, DiagServerConfig config)
    : engine_(engine),
      can_(can),
      backend_(std::move(backend)),
      config_(std::move(config)),
      endpoint_(can.attach(config_.name,
                           [this](const bus::Frame& frame, sim::SimTime now) {
                             on_frame(frame, now);
                           })),
      rx_(bus::E2EConfig{config_.request_data_id, bus::kE2ECounterModulo - 1}),
      tx_(bus::E2EConfig{config_.response_data_id, 1}) {
  register_standard_dids();
}

void DiagServer::register_standard_dids() {
  if (backend_.watchdog != nullptr) {
    auto* wdg = backend_.watchdog;
    add_data_identifier(kDidWatchdogCycles, "wdg_cycles", [wdg] {
      return static_cast<double>(wdg->cycles_run());
    });
    add_data_identifier(kDidWatchdogErrors, "wdg_errors", [wdg] {
      return static_cast<double>(wdg->errors_reported());
    });
    add_data_identifier(kDidEcuHealth, "ecu_health", [wdg] {
      return wdg->ecu_health() == wdg::Health::kOk ? 0.0 : 1.0;
    });
  }
  if (backend_.fmf != nullptr) {
    auto* fmf = backend_.fmf;
    add_data_identifier(kDidResetCount, "ecu_resets", [fmf] {
      return static_cast<double>(fmf->ecu_resets_performed());
    });
    add_data_identifier(kDidStormLatched, "storm_latched", [fmf] {
      return fmf->storm_latched() ? 1.0 : 0.0;
    });
  }
  if (backend_.dtcs != nullptr) {
    auto* dtcs = backend_.dtcs;
    add_data_identifier(kDidDtcCount, "dtc_count", [dtcs] {
      return static_cast<double>(dtcs->count());
    });
    add_data_identifier(kDidActiveDtcCount, "active_dtc_count", [dtcs] {
      return static_cast<double>(dtcs->active_count());
    });
  }
  if (backend_.heartbeats_sent) {
    auto probe = backend_.heartbeats_sent;
    add_data_identifier(kDidHeartbeatsSent, "heartbeats_sent", [probe] {
      return static_cast<double>(probe());
    });
  }
  if (backend_.policy_hash) {
    auto probe = backend_.policy_hash;
    add_data_identifier(kDidPolicyHash, "policy_hash", [probe] {
      return static_cast<double>(probe());
    });
  }
  if (backend_.policy_version) {
    auto probe = backend_.policy_version;
    add_data_identifier(kDidPolicyVersion, "policy_version", [probe] {
      return static_cast<double>(probe());
    });
  }
  if (backend_.environment != nullptr) {
    const auto* env = backend_.environment;
    add_data_identifier(kDidTemperature, "temperature_cdeg", [env] {
      return env->temperature_c() * 100.0;
    });
    add_data_identifier(kDidDerateStage, "derate_stage", [env] {
      return static_cast<double>(env->stage());
    });
  }
  if (backend_.nvm != nullptr) {
    const auto* nvm = backend_.nvm;
    add_data_identifier(kDidFlashFill, "flash_fill_pct", [nvm] {
      return nvm->fill_level() * 100.0;
    });
    add_data_identifier(kDidFlashWear, "flash_wear_pct", [nvm] {
      return nvm->wear_level() * 100.0;
    });
  }
  if (backend_.process != nullptr) {
    const auto* psu = backend_.process;
    add_data_identifier(kDidTransgressions, "transgressions", [psu] {
      return static_cast<double>(psu->transgressions());
    });
    for (std::size_t i = 0; i < psu->section_count(); ++i) {
      const auto base =
          static_cast<std::uint16_t>(kDidTransgressionBase + 3 * i);
      const std::string& section = psu->record(i).section;
      add_data_identifier(base, section + "_count", [psu, i] {
        return static_cast<double>(psu->record(i).count);
      });
      add_data_identifier(static_cast<std::uint16_t>(base + 1),
                          section + "_worst_us", [psu, i] {
                            return static_cast<double>(
                                psu->record(i).worst.as_micros());
                          });
      add_data_identifier(static_cast<std::uint16_t>(base + 2),
                          section + "_last_ms", [psu, i] {
                            return static_cast<double>(
                                psu->record(i).last_at.as_millis());
                          });
    }
  }
  add_data_identifier(kDidSessionState, "session_state",
                      [this] { return session_active_ ? 1.0 : 0.0; });
}

void DiagServer::add_data_identifier(std::uint16_t did, std::string name,
                                     std::function<double()> probe) {
  dids_[did] = DataIdentifier{std::move(name), std::move(probe)};
}

bool DiagServer::offline() const {
  if (blackout_) return true;
  return backend_.offline && backend_.offline();
}

void DiagServer::on_frame(const bus::Frame& frame, sim::SimTime now) {
  if (frame.id != config_.request_can_id) return;
  if (offline()) {
    ++dropped_offline_;
    return;
  }
  if (rx_.check(frame) != bus::E2EStatus::kOk) return;  // silent discard
  const auto request = decode_request(frame.payload, bus::kE2EHeaderBytes);
  if (!request) return;
  ++accepted_;
  emit_event(now, telemetry::EventKind::kDiagRequest,
             config_.name + " " + std::string(service_name(request->sid)));
  const Response response = dispatch(*request, now);
  if (session_active_) refresh_session(now);
  send(response);
}

Response DiagServer::dispatch(const Request& request, sim::SimTime now) {
  switch (request.sid) {
    case kSidReadDtcInformation:
      return read_dtc_information(request);
    case kSidReadDataByIdentifier:
      return read_data_by_identifier(request);
    case kSidClearDiagnosticInformation:
      if (!session_active_) {
        return negative(request.sid, Nrc::kConditionsNotCorrect);
      }
      return clear_diagnostic_information(request);
    case kSidEcuReset:
      if (!session_active_) {
        return negative(request.sid, Nrc::kConditionsNotCorrect);
      }
      return ecu_reset(request);
    case kSidTesterPresent: {
      const Response response = tester_present(request);
      if (response.positive) open_session(now);
      return response;
    }
    default:
      return negative(request.sid, Nrc::kServiceNotSupported);
  }
}

Response DiagServer::read_dtc_information(const Request& request) {
  if (request.data.size() < 1) {
    return negative(request.sid, Nrc::kIncorrectMessageLength);
  }
  if (backend_.dtcs == nullptr) {
    return negative(request.sid, Nrc::kConditionsNotCorrect);
  }
  const std::uint8_t sub = request.data[0];
  Response response{request.sid, true, Nrc::kServiceNotSupported, {}};
  switch (sub) {
    case kReportDtcCount:
    case kReportDtcs: {
      if (request.data.size() != 1) {
        return negative(request.sid, Nrc::kIncorrectMessageLength);
      }
      const auto entries = backend_.dtcs->entries();
      response.data.push_back(sub);
      response.data.push_back(
          static_cast<std::uint8_t>(std::min<std::size_t>(entries.size(),
                                                          0xFF)));
      response.data.push_back(static_cast<std::uint8_t>(
          std::min<std::size_t>(backend_.dtcs->active_count(), 0xFF)));
      if (sub == kReportDtcs) {
        for (const auto& entry : entries) {
          DtcRecord dtc;
          dtc.application =
              static_cast<std::uint16_t>(entry.key.application.value());
          dtc.type = entry.key.type;
          dtc.active = entry.active;
          dtc.has_freeze_frame = entry.freeze_frame.has_value();
          dtc.occurrences = static_cast<std::uint16_t>(
              std::min<std::uint32_t>(entry.occurrences, 0xFFFF));
          dtc.last_seen_ms = static_cast<std::uint32_t>(
              entry.last_seen.as_micros() / 1000);
          encode_dtc_record(response.data, dtc);
        }
      }
      return response;
    }
    case kReportFreezeFrame: {
      // [sub | app u16 | type u8]
      if (request.data.size() != 4) {
        return negative(request.sid, Nrc::kIncorrectMessageLength);
      }
      fmf::DtcKey key;
      key.application = ApplicationId{*get_u16(request.data, 1)};
      key.type = static_cast<wdg::ErrorType>(request.data[3]);
      const auto* entry = backend_.dtcs->entry(key);
      if (entry == nullptr || !entry->freeze_frame.has_value()) {
        return negative(request.sid, Nrc::kRequestOutOfRange);
      }
      const auto& frame = *entry->freeze_frame;
      response.data.push_back(kReportFreezeFrame);
      put_u16(response.data,
              static_cast<std::uint16_t>(entry->key.application.value()));
      response.data.push_back(static_cast<std::uint8_t>(entry->key.type));
      put_u32(response.data, static_cast<std::uint32_t>(
                                 frame.captured_at.as_micros() / 1000));
      response.data.push_back(static_cast<std::uint8_t>(
          std::min<std::size_t>(frame.signals.size(), 0xFF)));
      for (const auto& [name, value] : frame.signals) {
        response.data.push_back(static_cast<std::uint8_t>(
            std::min<std::size_t>(name.size(), 0xFF)));
        for (std::size_t i = 0; i < name.size() && i < 0xFF; ++i) {
          response.data.push_back(static_cast<std::uint8_t>(name[i]));
        }
        put_f32(response.data, value);
      }
      return response;
    }
    default:
      return negative(request.sid, Nrc::kSubFunctionNotSupported);
  }
}

Response DiagServer::read_data_by_identifier(const Request& request) {
  if (request.data.size() != 2) {
    return negative(request.sid, Nrc::kIncorrectMessageLength);
  }
  const std::uint16_t did = *get_u16(request.data, 0);
  const auto it = dids_.find(did);
  if (it == dids_.end()) {
    return negative(request.sid, Nrc::kRequestOutOfRange);
  }
  Response response{request.sid, true, Nrc::kServiceNotSupported, {}};
  put_u16(response.data, did);
  put_f32(response.data, it->second.probe());
  return response;
}

Response DiagServer::clear_diagnostic_information(const Request& request) {
  if (!request.data.empty()) {
    return negative(request.sid, Nrc::kIncorrectMessageLength);
  }
  if (backend_.dtcs == nullptr) {
    return negative(request.sid, Nrc::kConditionsNotCorrect);
  }
  backend_.dtcs->clear();
  // Commit the cleared memory so the clear survives the next reset.
  if (backend_.fmf != nullptr) backend_.fmf->persist();
  return Response{request.sid, true, Nrc::kServiceNotSupported, {}};
}

Response DiagServer::ecu_reset(const Request& request) {
  if (request.data.size() != 1) {
    return negative(request.sid, Nrc::kIncorrectMessageLength);
  }
  if (!backend_.ecu_reset) {
    return negative(request.sid, Nrc::kConditionsNotCorrect);
  }
  const std::uint8_t reset_type = request.data[0];
  if (reset_type != 0x01) {
    return negative(request.sid, Nrc::kSubFunctionNotSupported);
  }
  // Answer first, reset later: the response must win arbitration before
  // the node enters its reboot blackout.
  auto reset = backend_.ecu_reset;
  engine_.schedule_in(config_.reset_delay, [reset] { reset(); },
                      sim::EventPriority::kMonitor);
  return Response{request.sid, true, Nrc::kServiceNotSupported, {reset_type}};
}

Response DiagServer::tester_present(const Request& request) {
  if (request.data.size() != 1 || request.data[0] != 0x00) {
    return negative(request.sid, Nrc::kSubFunctionNotSupported);
  }
  return Response{request.sid, true, Nrc::kServiceNotSupported, {0x00}};
}

void DiagServer::open_session(sim::SimTime now) {
  session_active_ = true;
  refresh_session(now);
}

void DiagServer::refresh_session(sim::SimTime now) {
  if (session_expiry_event_ != 0) engine_.cancel(session_expiry_event_);
  session_expiry_event_ = engine_.schedule_at(
      now + config_.s3_timeout, [this] { expire_session(); },
      sim::EventPriority::kMonitor);
}

void DiagServer::expire_session() {
  session_expiry_event_ = 0;
  if (!session_active_) return;
  session_active_ = false;
  ++expired_;
  emit_event(engine_.now(), telemetry::EventKind::kDiagSessionExpired,
             config_.name);
}

void DiagServer::send(const Response& response) {
  if (response_drop_) return;
  bus::Frame frame;
  frame.id = config_.response_can_id;
  frame.payload = encode_response(response);
  tx_.protect(frame);
  ++responses_;
  emit_event(engine_.now(), telemetry::EventKind::kDiagResponse,
             config_.name + " " + std::string(service_name(response.sid)) +
                 (response.positive
                      ? std::string(" ok")
                      : " nrc=" + std::string(to_string(response.nrc))));
  can_.transmit(endpoint_, frame);
}

Response DiagServer::negative(std::uint8_t sid, Nrc nrc) {
  Response response;
  response.sid = sid;
  response.positive = false;
  response.nrc = nrc;
  return response;
}

}  // namespace easis::diag
