#ifndef CPGAN_EVAL_REPORT_H_
#define CPGAN_EVAL_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cpgan::eval {

/// Mean of a sample (0 for empty input).
double Mean(const std::vector<double>& values);

/// Sample standard deviation (0 for fewer than two values).
double Stddev(const std::vector<double>& values);

/// Formats "mean±std" in units of 1e-2 like the paper's Table III
/// ("72.5±0.4" for mean 0.725, std 0.004).
std::string FormatMeanStdE2(const std::vector<double>& values);

/// Human-readable byte count: "512 B", "1.5 KiB", "2.3 MiB", "4.0 GiB".
std::string FormatBytes(int64_t bytes);

/// Human-readable duration from milliseconds: "950 ms", "2.50 s", "3m12s".
std::string FormatMillis(double millis);

}  // namespace cpgan::eval

#endif  // CPGAN_EVAL_REPORT_H_
