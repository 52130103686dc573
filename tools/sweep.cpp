// Thin entry point; sweep lives in sweep_main.cpp (tracemod_cli library)
// so its flag and exit-code contracts are testable in-process.
#include <string>
#include <vector>

#include "tracemod_cli.hpp"

int main(int argc, char** argv) {
  return tracemod::cli::sweep_main(
      std::vector<std::string>(argv + 1, argv + argc));
}
