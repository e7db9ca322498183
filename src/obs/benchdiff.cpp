#include "obs/benchdiff.hpp"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace clara::obs {

namespace {

constexpr const char* kSchema = "clara-bench-perf/1";
constexpr const char* kAccuracySchema = "clara-bench-accuracy/1";

const char* to_string(BenchDiffRow::Status status) {
  switch (status) {
    case BenchDiffRow::Status::kOk: return "ok";
    case BenchDiffRow::Status::kRegressed: return "REGRESSED";
    case BenchDiffRow::Status::kImproved: return "improved";
    case BenchDiffRow::Status::kSkipped: return "skipped";
  }
  return "?";
}

/// Classifies one metric pair under the gating rules. `gated` false
/// forces kSkipped regardless of the change (noise floor,
/// oversubscription).
BenchDiffRow make_row(std::string scenario, std::string metric, double old_value, double new_value,
                      bool higher_is_better, bool gated, std::string note,
                      const BenchDiffOptions& options) {
  BenchDiffRow row;
  row.scenario = std::move(scenario);
  row.metric = std::move(metric);
  row.old_value = old_value;
  row.new_value = new_value;
  row.higher_is_better = higher_is_better;
  row.note = std::move(note);
  row.change = old_value != 0.0 ? (new_value - old_value) / old_value : 0.0;
  if (!gated) {
    row.status = BenchDiffRow::Status::kSkipped;
    return row;
  }
  const double worse = higher_is_better ? -row.change : row.change;
  if (worse > options.threshold) {
    row.status = BenchDiffRow::Status::kRegressed;
  } else if (worse < -options.threshold) {
    row.status = BenchDiffRow::Status::kImproved;
  } else {
    row.status = BenchDiffRow::Status::kOk;
  }
  return row;
}

/// Classifies an accuracy metric pair under an absolute tolerance band
/// (lower is better; change carries the drift in error points).
BenchDiffRow make_band_row(std::string scenario, std::string metric, double old_value,
                           double new_value, bool gated, double band, std::string note) {
  BenchDiffRow row;
  row.scenario = std::move(scenario);
  row.metric = std::move(metric);
  row.old_value = old_value;
  row.new_value = new_value;
  row.higher_is_better = false;
  row.note = std::move(note);
  row.change = new_value - old_value;
  if (!gated) {
    row.status = BenchDiffRow::Status::kSkipped;
  } else if (row.change > band) {
    row.status = BenchDiffRow::Status::kRegressed;
  } else if (row.change < -band) {
    row.status = BenchDiffRow::Status::kImproved;
  } else {
    row.status = BenchDiffRow::Status::kOk;
  }
  return row;
}

/// Indexes an array of {"name": ...} objects by name.
std::map<std::string, const Json*> index_by_name(const Json* array) {
  std::map<std::string, const Json*> out;
  if (!array || !array->is_array()) return out;
  for (const auto& entry : array->as_array()) {
    const std::string name = entry.string_at("name");
    if (!name.empty()) out[name] = &entry;
  }
  return out;
}

void add_only_in(BenchDiffReport& report, const std::string& scenario, const char* which) {
  BenchDiffRow row;
  row.scenario = scenario;
  row.metric = "-";
  row.status = BenchDiffRow::Status::kSkipped;
  row.note = strf("only in %s run", which);
  report.rows.push_back(std::move(row));
}

void diff_named_section(BenchDiffReport& report, const char* section, const Json& old_run,
                        const Json& new_run, const std::vector<std::string>& lower_is_better,
                        const std::vector<std::string>& higher_is_better,
                        const BenchDiffOptions& options) {
  const auto old_entries = index_by_name(old_run.get(section));
  const auto new_entries = index_by_name(new_run.get(section));
  for (const auto& [name, old_entry] : old_entries) {
    const std::string scenario = std::string(section) + "/" + name;
    const auto it = new_entries.find(name);
    if (it == new_entries.end()) {
      add_only_in(report, scenario, "old");
      continue;
    }
    const Json& new_entry = *it->second;
    // Only the new run's own flag waives the >1.0 speedup contract: an
    // oversubscribed baseline says nothing about the runner being judged.
    const bool oversubscribed = new_entry.bool_at("oversubscribed");
    for (const auto& metric : lower_is_better) {
      if (!old_entry->get(metric) && !new_entry.get(metric)) continue;
      const double old_value = old_entry->number_at(metric);
      const double new_value = new_entry.number_at(metric);
      bool gated = true;
      std::string note;
      BenchDiffOptions row_options = options;
      if (metric == "ns_per_iter" && old_value < options.min_micro_ns) {
        gated = false;
        note = strf("below %.0f ns noise floor", options.min_micro_ns);
      } else if (metric == "ns_per_iter" && name == "solver_pivot_ns") {
        // Per-pivot cost averages thousands of deterministic pivots per
        // iteration — low-noise, so it gets the tighter engine gate.
        row_options.threshold = options.pivot_threshold;
        note = strf("pivot micro; gated at %.0f%%", options.pivot_threshold * 100.0);
      }
      report.rows.push_back(
          make_row(scenario, metric, old_value, new_value, false, gated, note, row_options));
    }
    for (const auto& metric : higher_is_better) {
      if (!old_entry->get(metric) && !new_entry.get(metric)) continue;
      const double old_value = old_entry->number_at(metric);
      const double new_value = new_entry.number_at(metric);
      std::string note;
      if (metric == "speedup" && oversubscribed) {
        // Time-sliced threads can't honor the >1.0 contract, but a drop
        // against the recorded baseline on the same (oversubscribed)
        // runner still means the substrate got slower — gate that.
        note = "oversubscribed; >1.0 contract waived, still gated vs baseline";
      }
      auto row =
          make_row(scenario, metric, old_value, new_value, true, true, std::move(note), options);
      if (metric == "speedup" && !oversubscribed && new_value < 1.0 &&
          row.status != BenchDiffRow::Status::kRegressed) {
        // The substrate's contract: parallel must beat serial when real
        // cores are available, whatever the baseline said.
        row.status = BenchDiffRow::Status::kRegressed;
        row.note = "speedup below the 1.0 contract";
      }
      report.rows.push_back(std::move(row));
    }
  }
  for (const auto& [name, entry] : new_entries) {
    (void)entry;
    if (!old_entries.count(name)) add_only_in(report, std::string(section) + "/" + name, "new");
  }
}

}  // namespace

bool BenchDiffReport::has_regression() const { return regressions() > 0; }

std::size_t BenchDiffReport::regressions() const {
  std::size_t n = 0;
  for (const auto& row : rows) {
    if (row.status == BenchDiffRow::Status::kRegressed) ++n;
  }
  return n;
}

std::string BenchDiffReport::render(double threshold) const {
  TextTable table({"scenario", "metric", "old", "new", "change", "status"});
  for (const auto& row : rows) {
    std::string status = to_string(row.status);
    if (!row.note.empty()) status += " (" + row.note + ")";
    table.add_row({row.scenario, row.metric,
                   row.metric == "-" ? "" : strf("%.3f", row.old_value),
                   row.metric == "-" ? "" : strf("%.3f", row.new_value),
                   row.metric == "-" ? "" : strf("%+.1f%%", row.change * 100.0), status});
  }
  std::string out = table.render();
  const std::size_t n = regressions();
  if (n > 0) {
    out += strf("FAIL: %zu metric(s) regressed beyond %.0f%%\n", n, threshold * 100.0);
  } else {
    out += strf("PASS: no regression beyond %.0f%%\n", threshold * 100.0);
  }
  return out;
}

Result<BenchDiffReport, Error> diff_bench_json(const Json& old_run, const Json& new_run,
                                               const BenchDiffOptions& options) {
  for (const auto* run : {&old_run, &new_run}) {
    const std::string schema = run->string_at("schema");
    if (schema != kSchema) {
      return make_error(ErrorCode::kParse,
                        strf("expected schema \"%s\", got \"%s\"", kSchema, schema.c_str()));
    }
  }

  BenchDiffReport report;
  // items_per_sec is derived from ns_per_iter (1e9 / ns), so gating
  // ns_per_iter alone covers micros without double-counting.
  diff_named_section(report, "micro", old_run, new_run, {"ns_per_iter"}, {}, options);
  diff_named_section(report, "parallel", old_run, new_run, {"serial_ms", "parallel_ms"},
                     {"speedup"}, options);

  // "cache" and "repair" are single objects; compare them directly.
  struct ObjectSection {
    const char* section;
    std::vector<std::string> lower;
    std::vector<std::string> higher;
  };
  const std::vector<ObjectSection> sections = {
      {"cache", {"cold_ms", "warm_ms"}, {"cache_warm_speedup"}},
      {"repair", {"cold_remap_ms", "repair_ms"}, {"repair_remap_speedup"}},
      {"serve",
       {"serve_p50_us", "serve_p99_us", "serve_p999_us"},
       {"serve_warm_hit_rate"}},
  };
  for (const auto& spec : sections) {
    const Json* old_entry = old_run.get(spec.section);
    const Json* new_entry = new_run.get(spec.section);
    if (!old_entry || !old_entry->is_object()) {
      if (new_entry && new_entry->is_object()) add_only_in(report, spec.section, "new");
      continue;
    }
    if (!new_entry || !new_entry->is_object()) {
      add_only_in(report, spec.section, "old");
      continue;
    }
    for (const auto& metric : spec.lower) {
      if (!old_entry->get(metric) && !new_entry->get(metric)) continue;
      report.rows.push_back(make_row(spec.section, metric, old_entry->number_at(metric),
                                     new_entry->number_at(metric), false, true, {}, options));
    }
    for (const auto& metric : spec.higher) {
      if (!old_entry->get(metric) && !new_entry->get(metric)) continue;
      report.rows.push_back(make_row(spec.section, metric, old_entry->number_at(metric),
                                     new_entry->number_at(metric), true, true, {}, options));
    }
    if (std::string(spec.section) == "serve") {
      // Absolute-count gates (the relative make_row can't flag a jump
      // off a zero baseline): retries must not grow, and dropped —
      // requests with neither a response nor a typed client error —
      // must stay zero, period.
      if (old_entry->get("serve_retries") || new_entry->get("serve_retries")) {
        report.rows.push_back(make_band_row("serve", "serve_retries",
                                            old_entry->number_at("serve_retries"),
                                            new_entry->number_at("serve_retries"), true, 0.0,
                                            "absolute count; any increase regresses"));
      }
      if (old_entry->get("serve_dropped") || new_entry->get("serve_dropped")) {
        auto row = make_band_row("serve", "serve_dropped",
                                 old_entry->number_at("serve_dropped"),
                                 new_entry->number_at("serve_dropped"), true, 0.0,
                                 "silent drops must stay 0");
        if (new_entry->number_at("serve_dropped") > 0.0) {
          row.status = BenchDiffRow::Status::kRegressed;
        }
        report.rows.push_back(std::move(row));
      }
    }
  }
  return report;
}

Result<BenchDiffReport, Error> diff_accuracy_json(const Json& old_run, const Json& new_run,
                                                  const AccuracyDiffOptions& options) {
  for (const auto* run : {&old_run, &new_run}) {
    const std::string schema = run->string_at("schema");
    if (schema != kAccuracySchema) {
      return make_error(ErrorCode::kParse, strf("expected schema \"%s\", got \"%s\"",
                                                kAccuracySchema, schema.c_str()));
    }
  }

  BenchDiffReport report;
  const auto old_nfs = index_by_name(old_run.get("nfs"));
  const auto new_nfs = index_by_name(new_run.get("nfs"));
  for (const auto& [name, old_entry] : old_nfs) {
    const std::string scenario = "accuracy/" + name;
    const auto it = new_nfs.find(name);
    if (it == new_nfs.end()) {
      add_only_in(report, scenario, "old");
      continue;
    }
    const Json& new_entry = *it->second;
    report.rows.push_back(make_band_row(
        scenario, "mean_rel_err", old_entry->number_at("mean_rel_err"),
        new_entry.number_at("mean_rel_err"), true, options.mean_band,
        strf("band %.1f points", options.mean_band * 100.0)));
    report.rows.push_back(make_band_row(
        scenario, "p95_rel_err", old_entry->number_at("p95_rel_err"),
        new_entry.number_at("p95_rel_err"), true, options.p95_band,
        strf("band %.1f points", options.p95_band * 100.0)));
    // A single worst point is too noisy to gate; visibility only.
    report.rows.push_back(make_band_row(scenario, "max_rel_err",
                                        old_entry->number_at("max_rel_err"),
                                        new_entry.number_at("max_rel_err"), false, 0.0,
                                        "worst point; reported only"));
  }
  for (const auto& [name, entry] : new_nfs) {
    (void)entry;
    if (!old_nfs.count(name)) add_only_in(report, "accuracy/" + name, "new");
  }
  // A validation scenario starting to fail is itself a regression even
  // if the surviving aggregates look fine.
  report.rows.push_back(make_band_row("accuracy", "failures", old_run.number_at("failures"),
                                      new_run.number_at("failures"), true, 0.0,
                                      "failed scenarios"));
  return report;
}

Result<BenchDiffReport, Error> diff_bench_files(const std::string& old_path,
                                                const std::string& new_path,
                                                const BenchDiffOptions& options,
                                                const AccuracyDiffOptions& accuracy_options) {
  const auto load = [](const std::string& path) -> Result<Json, Error> {
    std::ifstream in(path, std::ios::binary);
    if (!in) return make_error(strf("cannot open %s", path.c_str()));
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = Json::parse(buffer.str());
    if (!parsed) {
      return make_error(ErrorCode::kParse,
                        strf("%s: %s", path.c_str(), parsed.error().message.c_str()));
    }
    return parsed;
  };
  auto old_run = load(old_path);
  if (!old_run) return old_run.error();
  auto new_run = load(new_path);
  if (!new_run) return new_run.error();
  const std::string old_schema = old_run.value().string_at("schema");
  const std::string new_schema = new_run.value().string_at("schema");
  if (old_schema != new_schema) {
    return make_error(ErrorCode::kParse, strf("schema mismatch: %s is \"%s\", %s is \"%s\"",
                                              old_path.c_str(), old_schema.c_str(),
                                              new_path.c_str(), new_schema.c_str()));
  }
  if (old_schema == kAccuracySchema) {
    return diff_accuracy_json(old_run.value(), new_run.value(), accuracy_options);
  }
  return diff_bench_json(old_run.value(), new_run.value(), options);
}

}  // namespace clara::obs
