#pragma once

// Wall clock for phase timing, modelled on CRK-HACC's MPI_Wtime()-based
// timers (paper §3.4.4).  Each phase is timed once: stage walls by the step
// propagator (sched::StageExecutor), kernel walls by the xsycl::Queue launch
// history.

namespace hacc::util {

// Monotonic seconds since an arbitrary epoch (MPI_Wtime stand-in).
double wtime();

}  // namespace hacc::util
