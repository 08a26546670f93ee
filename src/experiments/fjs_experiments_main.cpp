// fjs_experiments — the registry-driven experiment runner CLI.
//
//   fjs_experiments --list                     enumerate the registry
//   fjs_experiments --smoke                    fast CI profile, E1..E16
//   fjs_experiments --only e1,e14              run a named subset
//   fjs_experiments --filter 'miner|overlap'   regex over name/title/desc
//   fjs_experiments --jobs 8 --out results     parallelism / output root
//
// Exit status: 0 when every selected experiment ran clean and every
// verdict passed, 1 on any failure, 2 on usage errors.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/registry.h"
#include "experiments/runner.h"
#include "support/assert.h"
#include "support/thread_pool.h"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: fjs_experiments [options]\n"
     << "  --list               print the registered experiments and exit\n"
     << "  --smoke              scaled-down CI profile (fast, deterministic)\n"
     << "  --only LIST          comma-separated experiment names (e.g."
        " e1,e14)\n"
     << "  --skip LIST          comma-separated names to exclude\n"
     << "  --filter REGEX       case-insensitive regex over name, title,\n"
     << "                       description and paper reference\n"
     << "  --jobs N             worker threads, 1..1024 (default: hardware)\n"
     << "  --seed S             base seed; 0 (default) reproduces the\n"
     << "                       legacy per-experiment seeds exactly\n"
     << "  --out DIR            output root (default: results)\n"
     << "  --run-id ID          run directory name (default: generated;\n"
     << "                       an existing directory is refused)\n"
     << "  --force              replace an existing --run-id directory\n"
     << "                       instead of refusing\n"
     << "  --trace FILE         write a Chrome-tracing JSON (one span per\n"
     << "                       experiment) to FILE; view at\n"
     << "                       chrome://tracing or ui.perfetto.dev\n"
     << "  --quiet              skip the console replay (files still"
        " written)\n"
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

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, ',')) {
    if (!part.empty()) {
      parts.push_back(part);
    }
  }
  return parts;
}

void print_registry(std::ostream& os) {
  for (const auto* exp : fjs::experiments::experiment_registry()) {
    os << exp->name() << "  " << exp->title() << " [" << exp->paper_ref()
       << "]\n    " << exp->description() << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  // E9 drives google-benchmark programmatically; Initialize() settles its
  // global flags once so RunSpecifiedBenchmarks works from any selection.
  int bench_argc = 1;
  benchmark::Initialize(&bench_argc, argv);

  fjs::experiments::RunnerOptions options;
  std::vector<std::string> only;
  std::vector<std::string> skip;
  std::string filter;
  bool list = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](const char* what) -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "fjs_experiments: " << arg << " needs " << what << '\n';
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--only") {
      const auto parts = split_csv(value("a comma-separated name list"));
      only.insert(only.end(), parts.begin(), parts.end());
    } else if (arg == "--skip") {
      const auto parts = split_csv(value("a comma-separated name list"));
      skip.insert(skip.end(), parts.begin(), parts.end());
    } else if (arg == "--filter") {
      filter = value("a regex argument");
    } else if (arg == "--jobs") {
      std::uint64_t n = 0;
      if (!parse_u64(value("a numeric argument"), n) || n < 1 ||
          n > fjs::kMaxThreads) {
        std::cerr << "fjs_experiments: --jobs must be an integer in [1, "
                  << fjs::kMaxThreads << "]\n";
        return 2;
      }
      options.jobs = static_cast<std::size_t>(n);
    } else if (arg == "--seed") {
      if (!parse_u64(value("a numeric argument"), options.seed)) {
        std::cerr << "fjs_experiments: --seed must be a non-negative"
                     " integer\n";
        return 2;
      }
    } else if (arg == "--out") {
      options.out_root = value("a directory argument");
    } else if (arg == "--run-id") {
      options.run_id = value("a directory-name argument");
    } else if (arg == "--force") {
      options.force = true;
    } else if (arg == "--trace") {
      options.trace_path = value("a file argument");
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      std::cerr << "fjs_experiments: unknown option " << arg << '\n';
      print_usage(std::cerr);
      return 2;
    }
  }

  if (options.force && options.run_id.empty()) {
    std::cerr << "fjs_experiments: --force requires --run-id (generated ids"
                 " never collide)\n";
    return 2;
  }

  if (list) {
    print_registry(std::cout);
    return 0;
  }

  try {
    auto selection = fjs::experiments::select_experiments(only, filter);
    if (!skip.empty()) {
      for (const auto& name : skip) {
        FJS_REQUIRE(fjs::experiments::find_experiment(name) != nullptr,
                    "unknown experiment in --skip: " + name);
      }
      std::erase_if(selection, [&](const fjs::experiments::Experiment* exp) {
        for (const auto& name : skip) {
          if (exp->name() == name) {
            return true;
          }
        }
        return false;
      });
    }
    if (selection.empty()) {
      std::cerr << "fjs_experiments: selection matches no experiments\n";
      return 2;
    }
    const auto report = fjs::experiments::run_experiments(selection, options);
    return fjs::experiments::exit_code(report);
  } catch (const fjs::AssertionError& e) {
    std::cerr << "fjs_experiments: " << e.what() << '\n';
    return 2;
  }
}
