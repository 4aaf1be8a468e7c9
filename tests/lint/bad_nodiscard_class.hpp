// lint-fixture-path: src/mpi/example.hpp
// lint-expect: nodiscard
// The request handle without the class-level attribute, on its own: a
// fixture that also holds another nodiscard finding would still trip the
// rule if the class pattern stopped matching the handle's name.
#pragma once

namespace mpipred::mpi {

class Request {
 public:
  bool ready() const;
};

}  // namespace mpipred::mpi
