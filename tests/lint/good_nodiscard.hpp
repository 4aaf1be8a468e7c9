// lint-fixture-path: src/engine/example.hpp
// The compliant shapes: attribute on the same line, on the line above,
// and class-level on Request.
#pragma once

namespace mpipred::engine {

struct EngineReport;
struct StreamSnapshot;

class Example {
 public:
  [[nodiscard]] EngineReport report() const;
  [[nodiscard]]
  StreamSnapshot snapshot() const;
};

class [[nodiscard]] Request {
 public:
  bool ready() const;
};

}  // namespace mpipred::engine
