/**
 * @file
 * Shared switch of the golden harness (dapsim_golden_tests): set by
 * `--update-golden` or DAPSIM_UPDATE_GOLDEN=1, it makes every golden
 * test rewrite its file under tests/golden/ instead of comparing.
 */

#ifndef DAPSIM_TESTS_GOLDEN_UPDATE_HH
#define DAPSIM_TESTS_GOLDEN_UPDATE_HH

namespace dapsim::golden
{

/** True when the goldens should be regenerated (see main()). */
extern bool g_update;

} // namespace dapsim::golden

#endif // DAPSIM_TESTS_GOLDEN_UPDATE_HH
