// Fixture: floating point the policy's "report" exemption excuses.
namespace laps {
inline double percentOf(long long part, long long whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / whole;
}
}  // namespace laps
