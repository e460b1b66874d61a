#include "availsim/harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <thread>

namespace availsim::harness {

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("AVAILSIM_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int parse_jobs_flag(int& argc, char** argv, int def) {
  int jobs = def;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0 || std::strcmp(arg, "-j") == 0) {
      if (i + 1 < argc) jobs = std::atoi(argv[++i]);
      continue;
    }
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      jobs = std::atoi(arg + 7);
      continue;
    }
    if (std::strncmp(arg, "-j", 2) == 0 && arg[2] >= '0' && arg[2] <= '9') {
      jobs = std::atoi(arg + 2);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
  return resolve_jobs(jobs);
}

void parse_trace_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--audit") == 0) {
      ::setenv("AVAILSIM_AUDIT", "1", 1);
      continue;
    }
    if (std::strcmp(arg, "--trace") == 0) {
      ::setenv("AVAILSIM_TRACE_DIR", ".", 1);
      continue;
    }
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      ::setenv("AVAILSIM_TRACE_DIR", arg + 8, 1);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
}

namespace detail {

void run_indexed(int jobs, int count, const std::function<void(int)>& task) {
  if (count <= 0) return;
  jobs = std::clamp(jobs, 1, count);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
  if (jobs == 1) {
    // Inline fast path: no threads, same index order as the pool hands out.
    for (int i = 0; i < count; ++i) {
      try {
        task(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
        break;
      }
    }
  } else {
    std::atomic<int> next{0};
    auto worker = [&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          task(i);
        } catch (...) {
          errors[static_cast<std::size_t>(i)] = std::current_exception();
        }
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) workers.emplace_back(worker);
    for (auto& t : workers) t.join();
  }
  // Rethrow the lowest-index failure so error reporting is as
  // deterministic as success aggregation.
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace detail

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void BenchJson::add(const std::string& key, double value) {
  // JSON has no NaN/infinity literals.
  if (!std::isfinite(value)) {
    add_null(key);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  fields_.emplace_back(key, buf);
}

void BenchJson::add(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void BenchJson::add(const std::string& key, int value) {
  fields_.emplace_back(key, std::to_string(value));
}

void BenchJson::add(const std::string& key, const std::string& value) {
  // Built up piecewise: `"\"" + s + "\""` trips g++-12's -Wrestrict false
  // positive (GCC PR 105329) under -Werror.
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted.push_back('"');
  quoted += json_escape(value);
  quoted.push_back('"');
  fields_.emplace_back(key, std::move(quoted));
}

void BenchJson::add_null(const std::string& key) {
  fields_.emplace_back(key, "null");
}

std::string BenchJson::str() const {
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += "  \"" + fields_[i].first + "\": " + fields_[i].second;
    if (i + 1 < fields_.size()) out += ",";
    out += "\n";
  }
  out += "}\n";
  return out;
}

bool BenchJson::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << str();
  return static_cast<bool>(out);
}

}  // namespace availsim::harness
