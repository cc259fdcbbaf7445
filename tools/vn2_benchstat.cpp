// vn2_benchstat — the performance observatory's comparator and gate.
//
// Reads bench records (BENCH_*.json emitted by the bench/ binaries) and
// compares them against a checked-in baseline with noise-aware
// thresholds; see src/benchstat/gate.hpp for the gate semantics.
//
// Usage:
//   vn2_benchstat --baseline bench_baseline.json RUN...
//   vn2_benchstat BASE_RECORD RUN_RECORD           (two-record mode)
//
// RUN arguments are record files or directories, which are scanned for
// BENCH_*.json. Options:
//   --floor F     relative-delta floor for gated metrics (default 0.15)
//   --strict      baseline benches missing from the run fail the gate
//   --markdown    render a GitHub-flavoured markdown table
//   --update      shrink-only baseline refresh (refuses on regression)
//
// Exit codes mirror vn2-lint: 0 = gate passed, 1 = gate failed (or a
// refused --update), 2 = usage or parse error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "benchstat/gate.hpp"
#include "benchstat/record.hpp"
#include "telemetry/sink.hpp"

namespace {

constexpr int kExitPass = 0;
constexpr int kExitFail = 1;
constexpr int kExitUsage = 2;

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: vn2_benchstat [--baseline FILE] [--floor F] "
               "[--strict] [--markdown] [--update] RUN...\n"
               "       vn2_benchstat BASE_RECORD RUN_RECORD\n"
               "RUN is a BENCH_*.json record or a directory of them.\n");
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[4096];
  out.clear();
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
    out.append(buffer, got);
  std::fclose(file);
  return true;
}

/// Expands files/directories into the sorted list of record paths.
/// Directories contribute their BENCH_*.json entries.
bool collect_paths(const std::vector<std::string>& args,
                   std::vector<std::string>& paths) {
  for (const std::string& arg : args) {
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      std::vector<std::string> found;
      for (const auto& entry : std::filesystem::directory_iterator(arg, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
            name.rfind(".json") == name.size() - 5)
          found.push_back(entry.path().string());
      }
      if (found.empty()) {
        std::fprintf(stderr, "vn2_benchstat: no BENCH_*.json in %s\n",
                     arg.c_str());
        return false;
      }
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    } else {
      paths.push_back(arg);
    }
  }
  return true;
}

bool load_records(const std::vector<std::string>& paths,
                  std::vector<vn2::benchstat::Record>& records) {
  for (const std::string& path : paths) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "vn2_benchstat: cannot read %s\n", path.c_str());
      return false;
    }
    try {
      records.push_back(vn2::benchstat::read_record(text));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "vn2_benchstat: %s: %s\n", path.c_str(),
                   error.what());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::vector<std::string> positional;
  vn2::benchstat::GateOptions options;
  bool markdown = false;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--floor" && i + 1 < argc) {
      char* end = nullptr;
      options.relative_floor = std::strtod(argv[++i], &end);
      if (end == argv[i] || *end != '\0' || options.relative_floor < 0.0) {
        std::fprintf(stderr, "vn2_benchstat: bad --floor value '%s'\n",
                     argv[i]);
        return kExitUsage;
      }
    } else if (arg == "--strict") {
      options.strict = true;
    } else if (arg == "--markdown") {
      markdown = true;
    } else if (arg == "--update") {
      update = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return kExitPass;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "vn2_benchstat: unknown option '%s'\n",
                   arg.c_str());
      print_usage(stderr);
      return kExitUsage;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    print_usage(stderr);
    return kExitUsage;
  }

  vn2::benchstat::Baseline baseline;
  std::vector<std::string> run_args = positional;
  if (baseline_path.empty()) {
    // Two-record mode: the first positional record acts as the baseline.
    if (positional.size() != 2) {
      std::fprintf(stderr,
                   "vn2_benchstat: need --baseline FILE, or exactly two "
                   "record files for a pairwise comparison\n");
      return kExitUsage;
    }
    if (update) {
      std::fprintf(stderr,
                   "vn2_benchstat: --update requires --baseline FILE\n");
      return kExitUsage;
    }
    std::vector<vn2::benchstat::Record> base_records;
    if (!load_records({positional[0]}, base_records)) return kExitUsage;
    baseline.records = std::move(base_records);
    run_args = {positional[1]};
  } else {
    std::string text;
    if (read_file(baseline_path, text)) {
      try {
        baseline = vn2::benchstat::read_baseline(text);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "vn2_benchstat: %s: %s\n", baseline_path.c_str(),
                     error.what());
        return kExitUsage;
      }
    } else if (!update) {
      // A missing baseline is only legitimate when bootstrapping via
      // --update; a gate run against nothing would vacuously pass.
      std::fprintf(stderr, "vn2_benchstat: cannot read baseline %s\n",
                   baseline_path.c_str());
      return kExitUsage;
    }
  }

  std::vector<std::string> run_paths;
  if (!collect_paths(run_args, run_paths)) return kExitUsage;
  std::vector<vn2::benchstat::Record> run;
  if (!load_records(run_paths, run)) return kExitUsage;

  if (update) {
    const auto result = vn2::benchstat::ratchet_update(baseline, run, options);
    if (result.refused) {
      std::fprintf(stderr, "vn2_benchstat: refusing update: %s\n",
                   result.reason.c_str());
      return kExitFail;
    }
    vn2::telemetry::StringSink sink;
    vn2::benchstat::write_baseline(sink, result.baseline);
    std::FILE* out = std::fopen(baseline_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "vn2_benchstat: cannot write %s\n",
                   baseline_path.c_str());
      return kExitUsage;
    }
    std::fputs(sink.str().c_str(), out);
    std::fclose(out);
    std::printf("vn2_benchstat: baseline %s updated (%zu records)\n",
                baseline_path.c_str(), result.baseline.records.size());
    return kExitPass;
  }

  const auto report = vn2::benchstat::compare(baseline, run, options);
  const std::string rendered =
      markdown ? vn2::benchstat::render_markdown(report)
               : vn2::benchstat::render_text(report);
  std::fputs(rendered.c_str(), stdout);
  return report.failed() ? kExitFail : kExitPass;
}
