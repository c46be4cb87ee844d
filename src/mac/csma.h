// CSMA/CA coexistence model for the interference study (Sec. 4.2).
//
// The paper's interferer is a Talon router + laptop pair acting as a hidden
// terminal to the X60 link. Two questions decide how much it hurts:
//
//   1. Is it actually hidden? Directional 60 GHz transmission makes carrier
//      sensing unreliable ("deafness"): the interferer senses the victim
//      only if the victim's transmit power reaches it through both devices'
//      beam patterns above the sensing threshold. When sensing works,
//      CSMA serializes the two links and the overlap collapses; when it
//      fails, the interferer transmits obliviously.
//   2. How often does it transmit? A saturated CSMA sender with frame
//      airtime T_f and contention/idle overhead T_i occupies a duty cycle
//      of load * T_f / (T_f + T_i) -- that duty is the burst fraction the
//      dataset's calibrated interferer applies (channel::Interferer).
#pragma once

#include "channel/link.h"

namespace libra::mac {

inline constexpr double kFrameAirtimeMs = 2.0;   // interferer AMPDU airtime
inline constexpr double kContentionMs = 0.05;    // DIFS + average backoff
inline constexpr double kSensingThresholdDbm = -74.0;  // preamble detect

// Airtime fraction a CSMA sender with the given offered load occupies when
// nothing throttles it (its victim is hidden). offered_load in [0, 1] is
// the fraction of time it has traffic queued.
double unthrottled_duty(double offered_load);

// True if `listener` can carrier-sense transmissions from `talker` --
// i.e. the talker's signal through the current beams exceeds the sensing
// threshold at the listener. Deafness (false) creates a hidden terminal.
// The link argument models talker->listener propagation: its Tx is the
// talker with the beam it uses for its own traffic, its Rx is the listener
// with the (quasi-omni) pattern it listens on.
bool can_sense(const channel::Link& talker_to_listener,
               array::BeamId talker_beam, array::BeamId listener_beam);

}  // namespace libra::mac
