// serve_mixed: clarad's steady state. An in-process serve::Daemon on
// its Unix socket, driven as a closed loop by RunOptions::threads
// serve::Client connections, each sending its next request only after
// the previous response arrived. The mix is the serve load generator's:
// analyze lpm/nat/rewrite/meter, sweep nat, repair nat, validate
// rewrite, on 2k-packet traces at the run's seed. A cache-cold pass over
// the mix is set-up; the timed phase is cache-warm.
#include <unistd.h>

#include <memory>
#include <optional>
#include <thread>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "core/cache.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "staged.hpp"
#include "workloads.hpp"

namespace clarabench {

using namespace clara;

std::string small_workload_spec(std::uint64_t seed) {
  return strf("tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=%llu",
              (unsigned long long)seed);
}

namespace {

constexpr const char* kKinds[] = {"analyze", "sweep", "repair", "validate"};

std::vector<core::Request> build_mix(std::uint64_t seed) {
  const std::string spec = small_workload_spec(seed);
  std::vector<core::Request> mix;
  for (const char* nf : {"lpm", "nat", "rewrite", "meter"}) {
    core::Request request;
    request.kind = core::RequestKind::kAnalyze;
    request.nf = nf;
    request.workload = spec;
    mix.push_back(std::move(request));
  }
  core::Request sweep;
  sweep.kind = core::RequestKind::kSweep;
  sweep.nf = "nat";
  sweep.workload = spec;
  sweep.sweep_pps = {40'000.0, 80'000.0};
  mix.push_back(std::move(sweep));
  core::Request repair;
  repair.kind = core::RequestKind::kRepair;
  repair.nf = "nat";
  repair.workload = spec;
  repair.fault_plan = "fail-unit csum\n";
  mix.push_back(std::move(repair));
  core::Request validate;
  validate.kind = core::RequestKind::kValidate;
  validate.nf = "rewrite";
  validate.workload = spec;
  mix.push_back(std::move(validate));
  return mix;
}

/// Digest of a response with its id removed — the identity the output
/// check compares.
std::uint64_t response_digest(core::Response response) {
  response.id.clear();
  const std::string line = response.to_json();
  return Fnv1a().mix_bytes(line.data(), line.size()).digest();
}

struct LoopResult {
  std::vector<Sample> samples;
  Series latency_by_kind_ms[4];
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;        // ok=false responses, overload included
  std::uint64_t client_errors = 0;  // retries exhausted or no connection
  std::uint64_t mismatched = 0;     // ok responses differing from in-process
  std::uint64_t retries = 0;
};

/// Runs the closed loop for `seconds`. Each client checks every response
/// against the in-process digest after stamping its latency; the check
/// time is recorded so throughput can leave it out.
LoopResult closed_loop(const std::string& endpoint, const std::vector<core::Request>& mix,
                       const std::vector<std::uint64_t>& expected, std::size_t clients,
                       double seconds) {
  std::vector<LoopResult> per_client(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per_client[c];
      auto client = serve::Client::connect(endpoint);
      if (!client) {
        ++mine.attempted;
        ++mine.client_errors;
        return;
      }
      for (std::size_t k = 0; Clock::now() < deadline; ++k) {
        const std::size_t index = (c + clients * k) % mix.size();
        core::Request request = mix[index];
        request.id = strf("c%zu-%zu", c, k);
        serve::RetryStats stats;
        const auto t0 = Clock::now();
        auto response = client.value().call_with_retry(request, {}, &stats);
        const auto t1 = Clock::now();
        ++mine.attempted;
        mine.retries += stats.retries;
        if (!response) {
          ++mine.client_errors;
          continue;
        }
        mine.latency_by_kind_ms[static_cast<std::size_t>(request.kind)].add(ms_between(t0, t1));
        if (!response.value().ok) {
          ++mine.refused;
        } else if (response_digest(std::move(response).value()) != expected[index]) {
          ++mine.mismatched;
        }
        mine.samples.push_back({std::chrono::duration<double>(t1 - start).count(),
                                ms_between(t0, t1), 1.0, seconds_since(t1) * 1e3});
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult total;
  for (auto& r : per_client) {
    total.samples.insert(total.samples.end(), r.samples.begin(), r.samples.end());
    for (std::size_t k = 0; k < 4; ++k) {
      for (const double ms : r.latency_by_kind_ms[k].samples()) total.latency_by_kind_ms[k].add(ms);
    }
    total.attempted += r.attempted;
    total.refused += r.refused;
    total.client_errors += r.client_errors;
    total.mismatched += r.mismatched;
    total.retries += r.retries;
  }
  return total;
}

/// Daemon-side service time per request kind (serve/latency_us).
struct ServiceTimes {
  double sum_us[4] = {};
  std::uint64_t count[4] = {};

  static ServiceTimes now() {
    ServiceTimes t;
    for (std::size_t k = 0; k < 4; ++k) {
      const auto moments =
          obs::metrics().histogram("serve/latency_us", std::string("kind=") + kKinds[k]).moments();
      t.sum_us[k] = moments.sum();
      t.count[k] = moments.count();
    }
    return t;
  }
};

/// Replays one request the way Service::handle serves it, stage by
/// stage, and checks the result against the in-process response.
std::string replay_request(SpanLog* log, const core::Request& request,
                           const core::Response& expected) {
  Scope root(log, "op.serve_request");
  {
    Scope span(log, layer::kWire);
    if (!core::Request::from_json(request.to_json())) return "request does not round-trip";
  }
  Result<cir::Function> fn = make_error("unbuilt");
  {
    Scope span(log, layer::kNfBuild);
    const serve::NfEntry* entry = serve::find_nf(request.nf);
    if (entry == nullptr) return "unknown NF " + request.nf;
    fn = entry->build();
  }
  const auto resolve_nic = [&]() -> std::optional<lnic::NicProfile> {
    for (auto& profile : lnic::all_profiles()) {
      if (profile.name == request.nic) return std::move(profile);
    }
    return std::nullopt;
  };
  std::optional<core::Analyzer> analyzer;
  {
    Scope span(log, layer::kProfile);
    auto nic = resolve_nic();
    if (!nic) return "unknown NIC " + request.nic;
    analyzer.emplace(std::move(*nic));
  }
  workload::Trace trace;
  {
    Scope span(log, layer::kTracegen);
    auto profile = workload::parse_profile(request.workload);
    if (!profile) return profile.error().message;
    trace = workload::generate_trace(profile.value());
  }
  if (log != nullptr) log->count_packets(layer::kTracegen, trace.size());

  auto analysis = staged_analyze(log, *analyzer, fn.value(), trace, request.options);
  if (!analysis) return analysis.error().message;
  const core::Analysis* final_analysis = &analysis.value();
  Result<core::Analysis> repaired = make_error("not a repair");
  switch (request.kind) {
    case core::RequestKind::kSweep: {
      std::vector<core::LoadSweepPoint> points;
      {
        Scope span(log, layer::kSweep);
        points = core::predict_load_sweep(*analyzer, analysis.value(), trace.profile,
                                          request.sweep_pps, request.options);
      }
      if (points.size() != expected.sweep.size()) return "sweep point count differs";
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (points[i].prediction.mean_latency_us != expected.sweep[i].mean_latency_us) {
          return strf("sweep point %zu differs", i);
        }
      }
      break;
    }
    case core::RequestKind::kRepair: {
      std::optional<core::Analyzer> degraded;
      {
        Scope span(log, layer::kFault);
        auto plan = fault::FaultPlan::parse(request.fault_plan);
        if (!plan) return plan.error().message;
        auto nic = resolve_nic();
        if (!nic) return "unknown NIC " + request.nic;
        if (auto applied = fault::apply_to_profile(plan.value(), *nic); !applied) {
          return applied.error().message;
        }
        degraded.emplace(std::move(*nic));
      }
      repaired = staged_repair(log, *degraded, fn.value(), trace, analysis.value(), request.options);
      if (!repaired) return repaired.error().message;
      final_analysis = &repaired.value();
      break;
    }
    case core::RequestKind::kValidate: {
      obs::ValidationScenario scenario;
      scenario.nf = request.nf;
      scenario.variant = "serve";
      scenario.workload = trace.profile.serialize();
      auto validated = staged_validate(log, *analyzer, scenario, analysis.value(), trace);
      if (!validated) return validated.error().message;
      if (validated.value().simulated_cycles != expected.simulated_cycles) {
        return "simulated cycles differ";
      }
      break;
    }
    default: break;
  }
  {
    Scope span(log, layer::kWire);
    if (!core::Response::from_json(expected.to_json())) return "response does not round-trip";
  }
  const auto& p = final_analysis->prediction;
  if (p.mean_latency_cycles != expected.mean_latency_cycles ||
      p.worst_case_cycles != expected.worst_case_cycles ||
      p.throughput_pps != expected.throughput_pps || p.bottleneck != expected.bottleneck ||
      final_analysis->report != expected.report) {
    return strf("replayed %s %s differs from the service's response", core::to_string(request.kind),
                request.nf.c_str());
  }
  return {};
}

}  // namespace

RunResult run_serve_mixed(const RunOptions& options) {
  RunResult result;
  const std::vector<core::Request> mix = build_mix(options.seed);
  serve::DaemonOptions daemon_options;
  daemon_options.socket_path = strf("%s/e2e-%d.sock", options.out_dir.c_str(), (int)::getpid());

  // Set-up: daemon start plus a cache-cold pass over the mix, repeated;
  // the median counts. The last daemon serves the timed phase.
  Series setup_s;
  std::unique_ptr<serve::Daemon> daemon;
  for (int rep = 0; rep < 25; ++rep) {
    if (daemon) daemon->stop();
    core::analysis_cache().clear();
    const auto t0 = Clock::now();
    daemon = std::make_unique<serve::Daemon>(daemon_options);
    if (auto status = daemon->start(); !status) {
      result.fail_check("daemon start failed: " + status.error().message);
      return result;
    }
    auto client = serve::Client::connect(daemon->socket_path());
    if (!client) {
      result.fail_check("cannot connect: " + client.error().message);
      return result;
    }
    for (std::size_t i = 0; i < mix.size(); ++i) {
      core::Request request = mix[i];
      request.id = strf("cold-%zu", i);
      auto response = client.value().call(request);
      if (!response || !response.value().ok) {
        result.fail_check(strf("cold pass request %zu failed: %s", i,
                               response ? response.value().error.c_str()
                                        : response.error().message.c_str()));
        return result;
      }
    }
    setup_s.add(seconds_since(t0));
  }

  // What Service::handle returns in-process for each mix request: the
  // reference every daemon response must equal, id aside.
  serve::Service service;
  std::vector<core::Response> expected;
  std::vector<std::uint64_t> expected_digest;
  for (const auto& request : mix) {
    expected.push_back(service.handle(request));
    expected_digest.push_back(response_digest(expected.back()));
    if (!expected.back().ok) result.fail_check("in-process reference failed: " + expected.back().error);
  }

  const auto account = [&](const LoopResult& loop) {
    result.attempted += loop.attempted;
    result.failed += loop.refused + loop.client_errors + loop.mismatched;
    if (loop.mismatched > 0) {
      result.check_failures.push_back(strf("%llu daemon responses differ from Service::handle",
                                           (unsigned long long)loop.mismatched));
    }
  };

  if (!options.trace) {
    const LoopResult loop =
        closed_loop(daemon->socket_path(), mix, expected_digest, options.threads, options.seconds);
    daemon->stop();
    account(loop);
    double err_sum = 0.0;
    std::size_t validated = 0;
    for (const auto& response : expected) {
      if (response.kind != core::RequestKind::kValidate) continue;
      err_sum += response.rel_err;
      ++validated;
    }
    set_end_to_end(result, windowed(loop.samples, options.threads), setup_s,
                   validated == 0 ? 0.0 : err_sum / static_cast<double>(validated));
    result.notes.push_back(strf("serve_mixed: %zu clients; client latency by request kind:",
                                options.threads));
    for (std::size_t k = 0; k < 4; ++k) {
      result.notes.push_back(strf("  %-8s p50 %.3f ms, p99 %.3f ms (%zu samples)", kKinds[k],
                                  loop.latency_by_kind_ms[k].percentile(0.5),
                                  loop.latency_by_kind_ms[k].percentile(0.99),
                                  loop.latency_by_kind_ms[k].count()));
    }
    return result;
  }

  // Traced run. Phase A: the closed loop as above, for the daemon-side
  // service times, pool activity and the client-observed remainder.
  TracedRun traced;
  const Counters u0 = Counters::now();
  const ServiceTimes s0 = ServiceTimes::now();
  const auto a_start = Clock::now();
  const LoopResult loop = closed_loop(daemon->socket_path(), mix, expected_digest,
                                      options.threads, options.seconds * 0.4);
  traced.untraced_wall_s = seconds_since(a_start);
  const ServiceTimes s1 = ServiceTimes::now();
  traced.untraced = Counters::now() - u0;
  traced.untraced_ops = loop.attempted;
  traced.client_retries = loop.retries;
  daemon->stop();
  account(loop);

  // Phase B: each mix request replayed stage by stage the way the
  // service handles it, alternately without and with spans, and checked
  // against the in-process response.
  SpanLog log;
  double plain_s = 0.0;
  std::uint64_t plain_ops = 0;
  std::uint64_t replay_failures = 0;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(options.seconds * 0.6));
  for (std::size_t k = 0; k == 0 || Clock::now() < deadline; ++k) {
    const std::size_t index = k % mix.size();
    const auto t0 = Clock::now();
    std::string diff = replay_request(nullptr, mix[index], expected[index]);
    plain_s += seconds_since(t0);
    ++plain_ops;
    const Counters c0 = Counters::now();
    if (diff.empty()) diff = replay_request(&log, mix[index], expected[index]);
    traced.traced += Counters::now() - c0;
    if (!diff.empty() && replay_failures++ == 0) result.fail_check("replay: " + diff);
  }
  traced.layers = summarize(log);
  traced.untraced_ops_per_s = static_cast<double>(plain_ops) / plain_s;
  traced.traced_ops_per_s = static_cast<double>(traced.layers.ops) / (traced.layers.op_wall_ms / 1e3);

  double service_sum_ms = 0.0;
  std::uint64_t service_count = 0;
  for (std::size_t k = 0; k < 4; ++k) {
    const std::uint64_t n = s1.count[k] - s0.count[k];
    const double sum_ms = (s1.sum_us[k] - s0.sum_us[k]) / 1e3;
    traced.service_ms[kKinds[k]] = n == 0 ? 0.0 : sum_ms / static_cast<double>(n);
    service_sum_ms += sum_ms;
    service_count += n;
  }
  double client_sum_ms = 0.0;
  for (const Sample& s : loop.samples) client_sum_ms += s.latency_ms;
  const double wire_ms = traced.layers.per_op_ms(layer::kWire);
  if (service_count > 0 && !loop.samples.empty()) {
    traced.transport_queue_ms = client_sum_ms / static_cast<double>(loop.samples.size()) -
                                service_sum_ms / static_cast<double>(service_count) - wire_ms;
  }
  set_per_layer_metrics(result, traced);
  write_chrome_trace(options.out_dir + "/spans_serve_mixed.json");
  return result;
}

}  // namespace clarabench
