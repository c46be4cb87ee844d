// Radix-2 FFT used to convert power delay profiles (time domain) into a CSI
// estimate (frequency domain), mirroring Sec. 6.1's "FFT PDP Similarity".
//
// The butterflies' operation order and the magnitude formula are fixed (see
// fft.cpp): the golden fleet digest and tests/paper_golden/ pin the spectra,
// so a change to either shows up as a moved digest or paper number.
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

std::size_t next_pow2(std::size_t n);

}  // namespace libra::util
