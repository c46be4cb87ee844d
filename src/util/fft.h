// Radix-2 FFT used to convert power delay profiles (time domain) into a CSI
// estimate (frequency domain), mirroring Sec. 6.1's "FFT PDP Similarity".
//
// The butterflies' operation order and the magnitude formula are fixed (see
// fft.cpp): the golden fleet digest and tests/paper_golden/ pin the spectra,
// so a change to either shows up as a moved digest or paper number.
// magnitude_spectrum() does not run fft(): it loads the real input in
// bit-reversed order into split re/im scratch and runs the same butterflies
// two lanes at a time (docs/architecture.md, "PDP kernel: one pass, same
// bits"). Lanes are independent, so its output equals the magnitudes of
// fft() on the zero-padded complex signal bit for bit, for every input,
// including zeros, subnormals, infinities and NaN.
#pragma once

#include <complex>
#include <span>
#include <vector>

namespace libra::util {

// In-place iterative radix-2 Cooley-Tukey. Size must be a power of two.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

// Magnitude spectrum of a real-valued signal, zero-padded to the next power
// of two. Returns the first half (the second half is symmetric).
std::vector<double> magnitude_spectrum(std::span<const double> signal);
// The same spectrum written into `out` (resized to half the padded length),
// reusing its capacity; the transform itself allocates nothing once this
// thread has run the size before.
void magnitude_spectrum(std::span<const double> signal,
                        std::vector<double>& out);

std::size_t next_pow2(std::size_t n);

}  // namespace libra::util
