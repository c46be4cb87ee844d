#include "core/decision_backend.h"

namespace libra::core {

obs::Counter& outage_fallback_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("rpc.outage_fallbacks");
  return c;
}

}  // namespace libra::core
