#include "util/fft.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <numbers>
#include <stdexcept>

namespace libra::util {

namespace {

// One radix-2 butterfly on (u, v) through twiddle w, for one lane (double)
// or two (Pair). The complex multiply is written out elementwise (re =
// vr*wr - vi*wi, im = vr*wi + vi*wr -- the same naive formula std::complex
// uses), and baseline x86-64 has no FMA to contract it into. The golden
// fleet digest and tests/paper_golden/ pin the spectra this produces, so
// the formula and its operation order stay fixed; lanes are independent,
// so running two at a time changes no bit.
template <typename T>
inline void butterfly(T& ur, T& ui, T& vr, T& vi, T wr, T wi) {
  const T pr = vr * wr - vi * wi;
  const T pi = vr * wi + vi * wr;
  vr = ur - pr;
  vi = ui - pi;
  ur = ur + pr;
  ui = ui + pi;
}

// Two doubles as one value (the GCC/Clang vector extension): arithmetic on
// it is lane-wise IEEE double arithmetic, one SSE2 instruction per operation
// on baseline x86-64 and plain code elsewhere.
using Pair = double __attribute__((vector_size(16)));

inline Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

// Every stage's twiddles for an n-point transform in one direction, split
// into real and imaginary parts: stage len's table starts at offset
// len/2 - 1 and holds len/2 entries, filled by the sequential complex
// w *= wlen recurrence (its rounding is part of the pinned spectra; every
// block of a stage uses the same sequence). Built once per (n, direction)
// per thread; there are at most two entries per power of two, so the cache
// stays small.
struct Twiddles {
  std::size_t n;
  bool inverse;
  std::vector<double> re;
  std::vector<double> im;
};

const Twiddles& twiddles(std::size_t n, bool inverse) {
  thread_local std::deque<Twiddles> cache;
  for (const Twiddles& t : cache) {
    if (t.n == n && t.inverse == inverse) return t;
  }
  Twiddles t{n, inverse, {}, {}};
  t.re.reserve(n - 1);
  t.im.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1 : -1);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      t.re.push_back(w.real());
      t.im.push_back(w.imag());
      w *= wlen;
    }
  }
  // A deque never moves its entries, so the tables a caller holds stay
  // valid as the cache grows.
  cache.push_back(std::move(t));
  return cache.back();
}

// Advance j from bitrev(i) to bitrev(i + 1) over log2(n) bits.
inline void next_bit_reversed(std::size_t& j, std::size_t n) {
  std::size_t bit = n >> 1;
  for (; j & bit; bit >>= 1) j ^= bit;
  j ^= bit;
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
    next_bit_reversed(j, n);
    if (i < j) std::swap(data[i], data[j]);
  }
  const Twiddles& tw = twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw.re.data() + (half - 1);
    const double* wi = tw.im.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double>* block = data.data() + i;
      for (std::size_t k = 0; k < half; ++k) {
        double ur = block[k].real(), ui = block[k].imag();
        double vr = block[k + half].real(), vi = block[k + half].imag();
        butterfly(ur, ui, vr, vi, wr[k], wi[k]);
        block[k] = {ur, ui};
        block[k + half] = {vr, vi};
      }
    }
  }
  if (inverse) {
    for (auto& x : data) x /= static_cast<double>(n);
  }
}

std::vector<double> magnitude_spectrum(std::span<const double> signal) {
  std::vector<double> mag;
  magnitude_spectrum(signal, mag);
  return mag;
}

void magnitude_spectrum(std::span<const double> signal,
                        std::vector<double>& out) {
  if (signal.empty()) {
    out.clear();
    return;
  }
  const std::size_t n = next_pow2(signal.size());
  out.resize(n / 2);
  if (n == 1) return;
  // fft() on the zero-padded complex signal: imaginary parts start at +0.0
  // (a real converted to std::complex), and every butterfly runs on the
  // same operands, only two lanes at a time in split re/im scratch.
  const Twiddles& tw = twiddles(n, false);
  if (n == 2) {
    double ur = signal[0], ui = 0.0;
    double vr = signal[1], vi = 0.0;
    butterfly(ur, ui, vr, vi, tw.re[0], tw.im[0]);
    out[0] = std::sqrt(ur * ur + ui * ui);
    return;
  }
  thread_local std::vector<double> scratch;
  const bool padded = signal.size() < n;
  if (scratch.size() < (padded ? 3 : 2) * n) {
    scratch.resize((padded ? 3 : 2) * n);
  }
  double* re = scratch.data();
  double* im = re + n;
  const double* x = signal.data();
  if (padded) {
    double* copy = im + n;
    std::copy(signal.begin(), signal.end(), copy);
    std::fill(copy + signal.size(), copy + n, 0.0);
    x = copy;
  }
  // Stages len = 2 and len = 4, fused with the bit-reversed load. Output
  // k (a multiple of 4) reads input j = bitrev(k); k + 1, k + 2 and k + 3
  // read j + n/2, j + n/4 and j + 3n/4. Stage 2 pairs (k, k+1) and
  // (k+2, k+3) through tw[0]; stage 4 pairs k + m with k + 2 + m through
  // tw[1 + m].
  const std::size_t q = n / 4;
  const Pair w2r = {tw.re[0], tw.re[0]};
  const Pair w2i = {tw.im[0], tw.im[0]};
  const Pair w4r = load(tw.re.data() + 1);
  const Pair w4i = load(tw.im.data() + 1);
  for (std::size_t k = 0, j = 0; k < n; k += 4) {
    Pair ur = {x[j], x[j + q]};  // lanes k, k + 2
    Pair vr = {x[j + 2 * q], x[j + 3 * q]};  // lanes k + 1, k + 3
    Pair ui = {0.0, 0.0};
    Pair vi = {0.0, 0.0};
    butterfly(ur, ui, vr, vi, w2r, w2i);
    Pair ar = {ur[0], vr[0]}, ai = {ui[0], vi[0]};  // k, k + 1
    Pair br = {ur[1], vr[1]}, bi = {ui[1], vi[1]};  // k + 2, k + 3
    butterfly(ar, ai, br, bi, w4r, w4i);
    store(re + k, ar);
    store(im + k, ai);
    store(re + k + 2, br);
    store(im + k + 2, bi);
    next_bit_reversed(j, q);
  }
  // The middle stages, two lanes at a time.
  for (std::size_t len = 8; len < n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* wr = tw.re.data() + (half - 1);
    const double* wi = tw.im.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; k += 2) {
        Pair ur = load(re + i + k), ui = load(im + i + k);
        Pair vr = load(re + i + k + half), vi = load(im + i + k + half);
        butterfly(ur, ui, vr, vi, load(wr + k), load(wi + k));
        store(re + i + k, ur);
        store(im + i + k, ui);
        store(re + i + k + half, vr);
        store(im + i + k + half, vi);
      }
    }
  }
  // The last stage (len = n) only for the first half, which is all the
  // spectrum keeps, fused with re^2 + im^2; n = 4 ended with the fused
  // stages above. Then sqrt(re^2 + im^2), not std::abs: abs() takes the
  // overflow-safe scaled route whose bits differ from the plain formula
  // (and the golden digest pins these bits), while PDP/CSI magnitudes sit
  // many orders below the overflow threshold.
  const std::size_t half = n / 2;
  for (std::size_t k = 0; k < half; k += 2) {
    Pair ur = load(re + k), ui = load(im + k);
    if (n > 4) {
      Pair vr = load(re + k + half), vi = load(im + k + half);
      butterfly(ur, ui, vr, vi, load(tw.re.data() + half - 1 + k),
                load(tw.im.data() + half - 1 + k));
    }
    store(out.data() + k, ur * ur + ui * ui);
  }
  for (double& m : out) m = std::sqrt(m);
}

}  // namespace libra::util
