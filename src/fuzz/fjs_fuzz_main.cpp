// fjs_fuzz — property-based differential fuzzing CLI.
//
//   fjs_fuzz --smoke                       fixed-seed CI profile (~30s)
//   fjs_fuzz --count 100000 --threads 8    long campaign
//   fjs_fuzz --replay failure.repro        re-run one repro file
//   fjs_fuzz --list-oracles                print the oracle battery
//
// Exit status: 0 when every instance passed every oracle, 1 on any
// failure, 2 on usage errors.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/harness.h"
#include "fuzz/repro.h"
#include "support/thread_pool.h"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: fjs_fuzz [options]\n"
     << "  --smoke              fixed-seed CI profile (fast, deterministic)\n"
     << "  --count N            seeds to fuzz (default 1000)\n"
     << "  --seed-start S       first seed (default 1)\n"
     << "  --threads T          worker threads, at most 1024 (default 0:\n"
     << "                       hardware)\n"
     << "  --max-jobs N         jobs per instance cap (default 12)\n"
     << "  --max-failures N     stop after N failing seeds (default 8)\n"
     << "  --no-shrink          report failures without minimizing them\n"
     << "  --no-offline         scheduler/trace oracles only\n"
     << "  --repro-dir DIR      write fuzz-<seed>.repro files into DIR\n"
     << "  --replay FILE        replay a repro file (shrunk instance if\n"
     << "                       present, else the original) and exit\n"
     << "  --list-oracles       print the oracle battery and exit\n"
     << "  --help               this text\n";
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  try {
    std::size_t used = 0;
    out = std::stoull(text, &used);
    return used == text.size();
  } catch (const std::exception&) {
    return false;
  }
}

int replay(const std::string& path, const fjs::FuzzOptions& options) {
  const fjs::ReproFile repro = fjs::load_repro(path);
  const fjs::Instance& instance =
      repro.shrunk ? *repro.shrunk : repro.original;
  std::cout << "replaying " << path << " (seed " << repro.seed
            << ", recorded oracle: " << repro.oracle << ")\n"
            << instance.to_string();
  const auto failures = fjs::replay_instance(instance, options);
  if (failures.empty()) {
    std::cout << "all oracles pass — failure no longer reproduces\n";
    return 0;
  }
  for (const auto& f : failures) {
    std::cout << "[" << f.oracle << "] " << f.detail << '\n';
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fjs::FuzzOptions options;
  std::string replay_path;
  bool list_oracles = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](std::uint64_t& out) {
      if (i + 1 >= args.size() || !parse_u64(args[i + 1], out)) {
        std::cerr << "fjs_fuzz: " << arg << " needs a numeric argument\n";
        std::exit(2);
      }
      ++i;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--smoke") {
      // The CI profile: fixed seed window, every oracle, bounded shrink.
      options.seed_start = 1;
      options.count = 3'000;
      options.max_failures = 4;
    } else if (arg == "--count") {
      value(options.count);
    } else if (arg == "--seed-start") {
      value(options.seed_start);
    } else if (arg == "--threads") {
      std::uint64_t t = 0;
      value(t);
      if (t > fjs::kMaxThreads) {
        std::cerr << "fjs_fuzz: --threads must be at most " << fjs::kMaxThreads
                  << " (0: hardware)\n";
        return 2;
      }
      options.threads = static_cast<std::size_t>(t);
    } else if (arg == "--max-jobs") {
      std::uint64_t n = 0;
      value(n);
      if (n < 1) {
        std::cerr << "fjs_fuzz: --max-jobs must be >= 1\n";
        return 2;
      }
      options.gen.max_jobs = static_cast<std::size_t>(n);
      options.gen.min_jobs = std::min(options.gen.min_jobs,
                                      options.gen.max_jobs);
    } else if (arg == "--max-failures") {
      std::uint64_t n = 0;
      value(n);
      options.max_failures = static_cast<std::size_t>(n);
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--no-offline") {
      options.oracle_options.run_offline = false;
    } else if (arg == "--repro-dir") {
      if (i + 1 >= args.size()) {
        std::cerr << "fjs_fuzz: --repro-dir needs a directory argument\n";
        return 2;
      }
      options.repro_dir = args[++i];
    } else if (arg == "--replay") {
      if (i + 1 >= args.size()) {
        std::cerr << "fjs_fuzz: --replay needs a file argument\n";
        return 2;
      }
      replay_path = args[++i];
    } else if (arg == "--list-oracles") {
      list_oracles = true;
    } else {
      std::cerr << "fjs_fuzz: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
  }

  try {
    if (list_oracles) {
      for (const auto& oracle :
           fjs::standard_oracles(options.oracle_options)) {
        std::cout << oracle.name << '\n';
      }
      return 0;
    }
    if (!replay_path.empty()) {
      return replay(replay_path, options);
    }
    const fjs::FuzzReport report = fjs::run_fuzz(options);
    std::cout << report.summary();
    return report.passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fjs_fuzz: " << e.what() << '\n';
    return 2;
  }
}
