/**
 * @file
 * The calibration loop that host times are read against.
 *
 * On a shared host the simulator's speed drifts between regimes up to
 * 3x apart on a scale of seconds, as neighbours come and go on the same
 * physical cores. A tight loop barely notices; what does is code with
 * the simulator's profile: many small functions reached through
 * indirect calls and scattered stores over a table the size of a
 * last-level-cache slice. referenceNs() is such code, uses nothing
 * from the library (so no change to the library moves it), and takes a
 * few milliseconds. busarb_perfbench times it just before and after
 * each cell; perfbench/run.py reads the cell's time against it.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench {

/** @return Host ns one fixed run of the calibration loop took. */
double referenceNs();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
