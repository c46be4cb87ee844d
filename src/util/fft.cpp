#include "util/fft.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace libra::util {

namespace {

// One stage's butterfly over block [i, i+len): data[i+k] / data[i+k+len/2]
// combined through twiddle tw[k]. The complex multiply is written out
// elementwise (re = vr*wr - vi*wi, im = vr*wi + vi*wr — the same naive
// formula std::complex uses), and baseline x86-64 has no FMA to contract
// it into. The golden fleet digest and tests/paper_golden/ pin the spectra
// this produces, so the formula and its operation order stay fixed.
inline void butterflies(std::complex<double>* data,
                        const std::complex<double>* tw, std::size_t half) {
  for (std::size_t k = 0; k < half; ++k) {
    const double ur = data[k].real();
    const double ui = data[k].imag();
    const double vr = data[k + half].real();
    const double vi = data[k + half].imag();
    const double wr = tw[k].real();
    const double wi = tw[k].imag();
    const double pr = vr * wr - vi * wi;
    const double pi = vr * wi + vi * wr;
    data[k] = {ur + pr, ui + pi};
    data[k + half] = {ur - pr, ui - pi};
  }
}

// Every stage's twiddles for an n-point transform in one direction: stage
// len's table starts at offset len/2 - 1 and holds len/2 entries, filled by
// the sequential w *= wlen recurrence (its rounding is part of the pinned
// spectra; every block of a stage uses the same sequence). Built once per
// (n, direction) per thread; there are at most two entries per power of
// two, so the cache stays small.
const std::complex<double>* twiddles(std::size_t n, bool inverse) {
  struct Entry {
    std::size_t n;
    bool inverse;
    std::vector<std::complex<double>> tw;
  };
  thread_local std::vector<Entry> cache;
  for (const Entry& e : cache) {
    if (e.n == n && e.inverse == inverse) return e.tw.data();
  }
  std::vector<std::complex<double>> tw;
  tw.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    const std::size_t base = tw.size();
    tw.push_back({1.0, 0.0});
    for (std::size_t k = 1; k < len / 2; ++k) {
      tw.push_back(tw[base + k - 1] * wlen);
    }
  }
  // The buffer is moved, never copied, so the pointer stays valid as the
  // cache grows.
  cache.push_back({n, inverse, std::move(tw)});
  return cache.back().tw.data();
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (n == 0) return;
  if ((n & (n - 1)) != 0) {
    throw std::invalid_argument("fft size must be a power of two");
  }
  // Bit reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  const std::complex<double>* tw = twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      butterflies(data.data() + i, tw + (half - 1), half);
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  if (signal.empty()) return {};
  const std::size_t n = next_pow2(signal.size());
  std::vector<std::complex<double>> buf(n);
  for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = signal[i];
  fft(buf);
  std::vector<double> mag(n / 2);
  // sqrt(re^2 + im^2), not std::abs: abs() takes the overflow-safe scaled
  // route whose bits differ from the plain formula (and the golden digest
  // pins these bits), while PDP/CSI magnitudes sit many orders below the
  // overflow threshold.
  for (std::size_t i = 0; i < mag.size(); ++i) {
    const double re = buf[i].real();
    const double im = buf[i].imag();
    mag[i] = std::sqrt(re * re + im * im);
  }
  return mag;
}

}  // namespace libra::util
