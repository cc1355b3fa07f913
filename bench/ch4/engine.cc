#include "ch4/engine.h"

namespace gdisim {

void SerialEngine::for_each(std::size_t count, const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace gdisim
