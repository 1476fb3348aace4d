// Package lu implements the paper's second application: parallel LU
// factorization of a dense n×n matrix with the Variable Group Block
// distribution (Figure 17), a static block-column distribution built on
// the functional performance model.
//
// The matrix is vertically partitioned into groups of b-wide column
// blocks. The size of each group and the distribution of its blocks are
// derived from the processor speeds evaluated at the problem size
// remaining when the factorization reaches that group — this is the
// distinctive feature of the Variable Group Block distribution: because
// the matrix shrinks as the factorization progresses, the speeds used for
// each group reflect the problem size actually being solved at that stage,
// which the functional model provides and a single number cannot.
package lu

import (
	"fmt"
	"math"
	"sort"

	"heteropart/internal/core"
	"heteropart/internal/plancache"
	"heteropart/internal/sim"
	"heteropart/internal/speed"
)

// Distribution is a Variable Group Block assignment of column blocks.
type Distribution struct {
	// N is the matrix size and B the column block width.
	N, B int
	// GroupSizes lists the number of blocks in each group g_1 … g_m.
	GroupSizes []int
	// Owners[k] is the processor owning block column k (len = ⌈N/B⌉).
	Owners []int
}

// Blocks returns the total number of column blocks.
func (d Distribution) Blocks() int { return len(d.Owners) }

// BlocksOwnedAfter returns, per processor, the number of blocks with
// index strictly greater than k.
func (d Distribution) BlocksOwnedAfter(k int, p int) []int {
	counts := make([]int, p)
	for i := k + 1; i < len(d.Owners); i++ {
		counts[d.Owners[i]]++
	}
	return counts
}

// VariableGroupBlock builds the distribution for an n×n matrix with block
// width b over processors whose flop rates are functions of working-set
// elements. Following §3.1:
//
//  1. Partition the elements of the current trailing matrix A' (initially
//     all of A) optimally with the functional model; read off the speed
//     s_i of each processor at its share.
//  2. The next group holds g = Σs_i / min s_i blocks (doubled when
//     g/p < 2, so every processor can receive at least two).
//  3. Distribute the group's blocks among processors in numbers
//     proportional to the s_i.
//  4. Recurse on the matrix that remains after the group's columns.
//  5. In the last group, processors are reordered so the fastest comes
//     last, for load balance at the tail of the factorization.
func VariableGroupBlock(n, b int, flopRates []speed.Function, opts ...core.Option) (Distribution, error) {
	return variableGroupBlock(n, b, flopRates, directPartition, opts)
}

// VariableGroupBlockCached builds the same distribution but serves every
// per-group partition through a shared plan cache: a sweep over block
// widths b (or repeated distributions of similar matrices) re-partitions
// the same trailing sizes over and over, so routing the calls through the
// cache turns most of them into exact hits. The distribution is
// bit-identical to VariableGroupBlock's: the cache's plans reproduce the
// direct allocation exactly. A nil cache partitions directly.
func VariableGroupBlockCached(c *plancache.Cache, n, b int, flopRates []speed.Function, opts ...core.Option) (Distribution, error) {
	if c == nil {
		return VariableGroupBlock(n, b, flopRates, opts...)
	}
	// Every group partitions the same processors: hash the model once.
	m := speed.NewModel(flopRates)
	return variableGroupBlock(n, b, flopRates, func(elements int64, _ []speed.Function, opts []core.Option) (core.Result, error) {
		return c.Get(core.AlgoCombined, elements, m, opts...)
	}, opts)
}

// partitionFunc computes the optimal partition of elements over the
// processors — directly, or through a plan cache.
type partitionFunc func(elements int64, fns []speed.Function, opts []core.Option) (core.Result, error)

func directPartition(elements int64, fns []speed.Function, opts []core.Option) (core.Result, error) {
	return core.Combined(elements, fns, opts...)
}

func variableGroupBlock(n, b int, flopRates []speed.Function, part partitionFunc, opts []core.Option) (Distribution, error) {
	if n <= 0 || b <= 0 || b > n {
		return Distribution{}, fmt.Errorf("lu: invalid sizes n=%d b=%d", n, b)
	}
	p := len(flopRates)
	if p == 0 {
		return Distribution{}, core.ErrNoProcessors
	}
	totalBlocks := (n + b - 1) / b
	d := Distribution{N: n, B: b, Owners: make([]int, 0, totalBlocks)}
	remainingBlocks := totalBlocks
	remainingCols := n
	for remainingBlocks > 0 {
		speeds, err := speedsAt(remainingCols, flopRates, part, opts)
		if err != nil {
			return Distribution{}, err
		}
		g := groupSize(speeds, p)
		if g > remainingBlocks {
			g = remainingBlocks
		}
		blockAlloc, err := core.SingleNumber(int64(g), speeds)
		if err != nil {
			return Distribution{}, fmt.Errorf("lu: distributing group: %w", err)
		}
		// The paper reverses the last group to keep the fastest processor
		// last. That presumes a normal-sized tail group; when deep paging
		// inflates Σs/min past the remaining block count, the capped
		// "last" group spans most of the matrix and reversing it would
		// hand the expensive early panels to the slowest processors —
		// so the reversal is limited to genuine tail groups (≤ 4p blocks).
		last := g == remainingBlocks && g <= 4*p
		owners := groupOwners(blockAlloc, speeds, last)
		d.Owners = append(d.Owners, owners...)
		d.GroupSizes = append(d.GroupSizes, g)
		remainingBlocks -= g
		remainingCols -= g * b
		if remainingCols < 0 {
			remainingCols = 0
		}
	}
	return d, nil
}

// speedsAt partitions the elements of an m×m trailing matrix with the
// functional model and returns each processor's absolute speed at its
// optimal share — the speeds the paper uses to size and fill a group.
func speedsAt(m int, flopRates []speed.Function, part partitionFunc, opts []core.Option) ([]float64, error) {
	elements := int64(m) * int64(m)
	if elements == 0 {
		elements = 1
	}
	res, err := part(elements, flopRates, opts)
	if err != nil {
		return nil, fmt.Errorf("lu: partitioning %d elements: %w", elements, err)
	}
	speeds := make([]float64, len(flopRates))
	for i, x := range res.Alloc {
		speeds[i] = flopRates[i].Eval(float64(x))
	}
	return speeds, nil
}

// groupSize computes g = Σs/min s, doubled when g/p < 2 so that there is a
// sufficient number of blocks in the group (§3.1 step 1).
func groupSize(speeds []float64, p int) int {
	var sum float64
	minPos := math.Inf(1)
	for _, s := range speeds {
		sum += s
		if s > 0 && s < minPos {
			minPos = s
		}
	}
	if math.IsInf(minPos, 1) || math.IsInf(sum, 1) || sum <= 0 {
		return 2 * p // degenerate speeds: fall back to two blocks each
	}
	g := int(math.Round(sum / minPos))
	if g < 1 {
		g = 1
	}
	if float64(g)/float64(p) < 2 {
		g = int(math.Round(2 * sum / minPos))
	}
	return g
}

// groupOwners lays out a group's block owners. Within a group the blocks
// of faster processors come first (they own the leading panels); in the
// last group the order is reversed so the distribution starts with the
// slowest processors and the fastest processor is kept last (§3.1 step 3).
func groupOwners(alloc core.Allocation, speeds []float64, lastGroup bool) []int {
	idx := make([]int, len(alloc))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if lastGroup {
			return speeds[idx[a]] < speeds[idx[b]]
		}
		return speeds[idx[a]] > speeds[idx[b]]
	})
	var owners []int
	for _, i := range idx {
		for k := int64(0); k < alloc[i]; k++ {
			owners = append(owners, i)
		}
	}
	return owners
}

// StepTime is the modelled duration of one factorization step.
type StepTime struct {
	// Panel is the panel factorization time (owner only).
	Panel float64
	// Update is the synchronized trailing-update time (slowest processor).
	Update float64
}

// SimTime returns the modelled parallel time in seconds of a right-looking
// blocked LU factorization under the distribution: at step k the owner of
// block column k factorizes the panel (≈ n_k·b² flops) and every processor
// updates its own remaining blocks (2·n_k·b·c_i flops for c_i owned
// columns), with speeds taken — per the functional model — at the problem
// size each processor holds of the trailing matrix at that step.
func SimTime(d Distribution, flopRates []speed.Function) (float64, error) {
	steps, err := SimTimeDetailed(d, flopRates)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, s := range steps {
		total += s.Panel + s.Update
	}
	return total, nil
}

// SimTimeDetailed returns the per-step timeline of the factorization, one
// entry per block column.
func SimTimeDetailed(d Distribution, flopRates []speed.Function) ([]StepTime, error) {
	p := len(flopRates)
	if p == 0 {
		return nil, core.ErrNoProcessors
	}
	for _, o := range d.Owners {
		if o < 0 || o >= p {
			return nil, fmt.Errorf("lu: owner %d out of range [0,%d)", o, p)
		}
	}
	n, b := float64(d.N), float64(d.B)
	steps := make([]StepTime, 0, d.Blocks())
	for k := 0; k < d.Blocks(); k++ {
		nk := n - float64(k)*b // trailing size including the panel
		width := math.Min(b, nk)
		// Panel factorization by the owner at its current working set.
		counts := d.BlocksOwnedAfter(k, p)
		owner := d.Owners[k]
		panelFlops := nk * width * width
		ownerSize := workingSet(nk, width, counts[owner]+1)
		tasks := make([]sim.Task, p)
		tasks[owner] = sim.Task{Work: panelFlops, Size: ownerSize}
		panelTime, _, err := sim.Makespan(tasks, flopRates)
		if err != nil {
			return nil, fmt.Errorf("lu: panel at step %d: %w", k, err)
		}
		step := StepTime{Panel: panelTime}
		// Trailing update: everyone works on its own columns.
		trailing := nk - width
		if trailing > 0 {
			for i := range tasks {
				cols := float64(counts[i]) * b
				tasks[i] = sim.Task{
					Work: 2 * trailing * width * cols,
					Size: workingSet(trailing, b, counts[i]),
				}
			}
			updateTime, _, err := sim.Makespan(tasks, flopRates)
			if err != nil {
				return nil, fmt.Errorf("lu: update at step %d: %w", k, err)
			}
			step.Update = updateTime
		}
		steps = append(steps, step)
	}
	return steps, nil
}

// workingSet is the problem size (elements) a processor holds of the
// trailing matrix: height × owned columns, floored at one element so speed
// lookups stay inside the functions' domains.
func workingSet(height, blockWidth float64, blocks int) float64 {
	ws := height * blockWidth * float64(blocks)
	if ws < 1 {
		ws = 1
	}
	return ws
}

// SingleNumberDistribution builds the same group-block layout but with the
// classical model: one constant speed per processor, measured at the
// factorization of a dense refN×refN matrix (working set refN² elements).
// This is the Figure 22(b) baseline with refN = 2000 and refN = 5000.
func SingleNumberDistribution(n, b, refN int, flopRates []speed.Function) (Distribution, error) {
	if refN <= 0 {
		return Distribution{}, fmt.Errorf("lu: invalid reference size %d", refN)
	}
	consts := make([]speed.Function, len(flopRates))
	for i, f := range flopRates {
		if f == nil {
			return Distribution{}, fmt.Errorf("lu: nil speed function for processor %d", i)
		}
		v := f.Eval(float64(refN) * float64(refN))
		c, err := speed.NewConstant(v, math.Max(f.MaxSize(), 1))
		if err != nil {
			return Distribution{}, err
		}
		consts[i] = c
	}
	return VariableGroupBlock(n, b, consts)
}

// GroupBlock builds the plain Group Block distribution of Barbosa et al.
// (the paper's references [27]–[28]), which Variable Group Block refines:
// the group size and the per-group block shares are computed once, from
// the speeds at the initial matrix, and repeated for every group (the
// last group still reversed for tail balance). Because the speeds are
// frozen at the full-matrix problem size, the distribution cannot follow
// the speed changes as the factorization shrinks the matrix — the
// difference the VGB-vs-GB ablation quantifies.
func GroupBlock(n, b int, flopRates []speed.Function, opts ...core.Option) (Distribution, error) {
	if n <= 0 || b <= 0 || b > n {
		return Distribution{}, fmt.Errorf("lu: invalid sizes n=%d b=%d", n, b)
	}
	p := len(flopRates)
	if p == 0 {
		return Distribution{}, core.ErrNoProcessors
	}
	speeds, err := speedsAt(n, flopRates, directPartition, opts)
	if err != nil {
		return Distribution{}, err
	}
	g := groupSize(speeds, p)
	totalBlocks := (n + b - 1) / b
	d := Distribution{N: n, B: b, Owners: make([]int, 0, totalBlocks)}
	remaining := totalBlocks
	for remaining > 0 {
		size := g
		if size > remaining {
			size = remaining
		}
		alloc, err := core.SingleNumber(int64(size), speeds)
		if err != nil {
			return Distribution{}, fmt.Errorf("lu: distributing group: %w", err)
		}
		last := size == remaining && size <= 4*p
		d.Owners = append(d.Owners, groupOwners(alloc, speeds, last)...)
		d.GroupSizes = append(d.GroupSizes, size)
		remaining -= size
	}
	return d, nil
}
