#include "eval/report.h"

#include <cmath>
#include <cstdio>

namespace cpgan::eval {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mean) * (v - mean);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

std::string FormatMeanStdE2(const std::vector<double>& values) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f±%.1f", Mean(values) * 100.0,
                Stddev(values) * 100.0);
  return std::string(buffer);
}

std::string FormatBytes(int64_t bytes) {
  char buffer[64];
  const char* units[] = {"KiB", "MiB", "GiB", "TiB"};
  if (bytes < 1024) {
    std::snprintf(buffer, sizeof(buffer), "%lld B",
                  static_cast<long long>(bytes));
    return std::string(buffer);
  }
  double value = static_cast<double>(bytes);
  int unit = -1;
  while (value >= 1024.0 && unit + 1 < 4) {
    value /= 1024.0;
    ++unit;
  }
  std::snprintf(buffer, sizeof(buffer), "%.1f %s", value, units[unit]);
  return std::string(buffer);
}

std::string FormatMillis(double millis) {
  char buffer[64];
  if (millis < 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f ms", millis);
  } else if (millis < 60000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", millis / 1000.0);
  } else {
    int64_t total_seconds = static_cast<int64_t>(millis / 1000.0);
    std::snprintf(buffer, sizeof(buffer), "%lldm%02llds",
                  static_cast<long long>(total_seconds / 60),
                  static_cast<long long>(total_seconds % 60));
  }
  return std::string(buffer);
}

}  // namespace cpgan::eval
