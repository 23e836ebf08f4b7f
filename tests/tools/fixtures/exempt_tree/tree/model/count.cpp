// Fixture: integer-only, so the policy's "model" exemption is stale.
namespace laps {
inline long long scaled(long long sharing, long long conflicts) {
  return sharing - conflicts;
}
}  // namespace laps
