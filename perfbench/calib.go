package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

const (
	// refTripsPerRep pipe round trips make one timed repetition of the
	// host reference; the reference is the fastest of refReps.
	refTripsPerRep = 250
	refReps        = 5
	// refNominalNs is the reference round trip of the host the published
	// figures come from, a shared two-vCPU Xeon virtual machine at 2.1 GHz:
	// end-to-end times are scaled to a host whose reference takes this long.
	refNominalNs = 800.0
)

// hostRef times the host reference: one byte written to a pipe and read
// back by the same thread, on the daemons' CPUs while the daemons idle,
// in ns per round trip. On the shared virtual machines this benchmark was
// built on, the kernel's cost per system call swung by a third over
// minutes while plain arithmetic held steady, and every daemon figure
// followed the system-call cost. The reference runs no code of the
// repository, so a change to the daemon cannot move it.
func hostRef(cpus string) (float64, error) {
	type result struct {
		ns  float64
		err error
	}
	done := make(chan result)
	go func() {
		// The thread is held while its affinity differs from the process's.
		// It is handed back rather than ended with the goroutine: a daemon
		// forked from an ending thread would get its death signal.
		runtime.LockOSThread()
		var saved cpuMask
		if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &saved); err != nil {
			runtime.UnlockOSThread()
			done <- result{0, err}
			return
		}
		ns, err := timePipe(cpus)
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &saved); err != nil {
			// The thread cannot go back to the pool; leave it locked so the
			// runtime retires it, and fail the run.
			done <- result{0, err}
			return
		}
		runtime.UnlockOSThread()
		done <- result{ns, err}
	}()
	r := <-done
	return r.ns, r.err
}

func timePipe(cpus string) (float64, error) {
	if err := setAffinity(cpus); err != nil {
		return 0, err
	}
	var p [2]int
	if err := syscall.Pipe(p[:]); err != nil {
		return 0, err
	}
	defer syscall.Close(p[0])
	defer syscall.Close(p[1])
	b := []byte{1}
	reps := make([]float64, refReps)
	for r := range reps {
		start := time.Now()
		for i := 0; i < refTripsPerRep; i++ {
			if _, err := syscall.Write(p[1], b); err != nil {
				return 0, err
			}
			if _, err := syscall.Read(p[0], b); err != nil {
				return 0, err
			}
		}
		reps[r] = float64(time.Since(start).Nanoseconds()) / refTripsPerRep
	}
	sort.Float64s(reps)
	return reps[0], nil
}

// cpuMask is a sched_setaffinity(2) CPU set.
type cpuMask [16]uint64

func schedAffinity(call uintptr, m *cpuMask) error {
	_, _, errno := syscall.RawSyscall(call, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if errno != 0 {
		return errno
	}
	return nil
}

// setAffinity confines the calling thread to a comma-separated CPU list;
// an empty list leaves it where it is.
func setAffinity(cpus string) error {
	if cpus == "" {
		return nil
	}
	var m cpuMask
	for _, f := range strings.Split(cpus, ",") {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n >= 64*len(m) {
			return syscall.EINVAL
		}
		m[n/64] |= 1 << (n % 64)
	}
	return schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &m)
}
