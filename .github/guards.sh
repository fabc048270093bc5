#!/usr/bin/env bash
# The repository's structural guards: each fails when code a refactor
# deleted comes back, or when a decision the refactor moved behind one
# place is made somewhere else again. They are one list (the end of this
# file), run by one CI step. Run from the repository root:
#
#	.github/guards.sh
#
# Every guard runs, each failure prints the offending lines and its
# message, and the script exits 1, naming the guards that failed, if any
# did.
set -u

failed=''
current=''

# guard NAME starts the next guard's checks.
guard() { current=$1; }

# fail MESSAGE prints MESSAGE and records the current guard as failed.
fail() {
	echo "$1" >&2
	failed="$failed
  $current"
}

# absent MESSAGE GIT-GREP-ARGS...: git grep -n must find nothing.
absent() {
	local msg=$1
	shift
	if git grep -n "$@"; then
		fail "$msg"
	fi
}

# only_in MESSAGE REGEX FILES ALLOWED...: every line of FILES (a
# space-separated list) that matches the awk regular expression REGEX lies
# in a function, or a const, var or type declaration, whose first line is
# one of ALLOWED.
only_in() {
	local msg=$1 re=$2 files=$3
	shift 3
	if [ -z "${files// /}" ]; then
		fail "$msg (no files to check)"
		return
	fi
	local allowed=()
	for fn in "$@"; do
		allowed+=(-e "$fn")
	done
	# shellcheck disable=SC2086 # files is a word list
	where=$(RE=$re awk 'FNR==1{fn=""} /^(func|const|var|type) /{fn=$0} $0 ~ ENVIRON["RE"]{print fn}' $files |
		grep -vxF "${allowed[@]}" || true)
	if [ -n "$where" ]; then
		fail "$msg"
		# shellcheck disable=SC2086
		git grep -nE "$re" -- $files >&2
	fi
}

# once MESSAGE CALL BUILDER: CALL appears in exactly one function of the
# root package's non-test Go files, the one FILE: DECLARATION line BUILDER
# names, once. A declaration line is not a call.
once() {
	local msg=$1 call=$2 builder=$3
	where=$(awk -v c="$call" '/^func /{fn=$0; next} index($0, c){print FILENAME ": " fn}' $(git ls-files ':(glob)*.go' ':(exclude,glob)*_test.go'))
	if [ "$where" != "$builder" ]; then
		fail "$msg"
		echo "$where" >&2
	fi
}

# The list.

guard 'No per-cluster loop in the driver'
# The cluster loop lives in the engine: a lane hands each chunk to its
# executor as one engine.Run (Executor.FindRun), and EXPLAIN ANALYZE's
# diagnostic pass hands it each cluster as a one-cluster Run. A FindAll
# call in driver.go or explain.go is a per-cluster loop growing back.
absent "driver.go or explain.go calls FindAll: the cluster loop belongs to the engine's run loops" \
	'\.FindAll(' -- driver.go explain.go

guard 'One record per execution'
# What an execution did is its obs.Event. The per-cluster cluster log that
# every batch run wrote for EXPLAIN ANALYZE's table (engine.Run.Log, its
# writer and decoder, Result.ClusterStats) was deleted: the table is
# measured by EXPLAIN ANALYZE's own diagnostic pass. The benchmark harness
# is exempt.
absent 'the cluster log or Result.ClusterStats is back' \
	-E 'logWriter|putClusterStat|NextClusterStat|clusterLogs|\bClusterStats\(' -- '*.go' ':!benchmark/'

guard 'No per-handle trace store'
# The per-Query lifecycle trace was deleted with its store, sampling knob
# and Chrome export; an execution's record is its obs.Event.
absent 'the per-handle trace store is back' \
	-E 'traceStore|SetTraceSampleRate|WriteChromeTrace|retainTrace|compileSpansOf' -- '*.go'

guard 'One configuration per plan'
# A plan is compiled once and never re-derived, and a run's probe path
# follows from its kernel alone: the adaptive executor flip (SetAdaptive,
# derivePlan, replacePlan, preferNaive, its replans counter and
# OPSSavingsObserved) and the per-run NoVectorize switch with
# Kernel.Memoize were deleted. The benchmark harness is exempt.
absent "a plan's configuration is being changed after compile again" \
	-E 'NoVectorize|SetAdaptive|derivePlan|replacePlan|preferNaive|adaptiveReplans|OPSSavingsObserved|\.Memoize\(' -- '*.go' ':!benchmark/'

guard 'One predicate compiler'
# A condition compiles once, to the kernel's atoms, which a stream's row
# path and the mask builders both read: the closure compiler (condFn and
# its four factories) is gone, and a batch probe reads the masks it is
# handed or the interpreter, so no engine.Run, driver search or memo
# carries projections. The unused setters and the per-Query trace went
# with it.
absent 'a second predicate compiler or a deleted API is back' \
	-E 'condFn|numConstKernel|numFieldKernel|strLitKernel|strFieldKernel|SetEventSampleRate|SetEventRingCapacity|SetPartitionCacheCapacity|LastPath' -- '*.go' ':!benchmark/'
absent 'the batch path carries projections again' \
	'Projs' -- internal/engine/run.go driver.go serving.go

guard 'One §5 runtime'
# Every pattern, star-free ones included, runs the §5 loops, which read
# §4.2's tables through the one rule on core.Tables.Next; streams read the
# plan's own tables. There are two loops: the row loop (evaluator.advance),
# which batch runs once per cluster and a stream once per push, and batch's
# pure-mask fast path (searchPure: the element-1 skip and the pair scan).
# So step.rollback is called from those two only; the stream's drain and
# the batch findAllStar, two copies of the row loop, were merged into it.
# The plain search loop, the second per-pattern table set for streams and
# the NoKernel run and stream options were deleted. A line whose first
# character other than a blank is a slash (a comment) is exempt.
absent 'a second search loop, stream table set or interpreter switch is back' \
	-E 'findAllPlain|evalPlain|loopPlain|streamTabs|streamTables|NoKernel' -- '*.go' ':!*_test.go' ':!benchmark/'
absent 'ComputeForStream is called outside the core package and the benchmark harness' \
	'ComputeForStream(' -- '*.go' ':!internal/core/' ':!benchmark/'
only_in 'step.rollback is called outside the row loop and the pure-mask loop: a second row loop is back' \
	'^[[:space:]]*[^[:space:]/].*\.rollback\(' \
	"$(git ls-files ':(glob)internal/engine/*.go' ':(exclude,glob)internal/engine/*_test.go' | tr '\n' ' ')" \
	'func (e *evaluator) advance(c *cursor, steps []step, star []bool, count []int, n, off, limit int) bool {' \
	'func (o *OPS) searchPure(nn int, x, y []uint64, c, xs int, evals int64) ([]Match, int64) {'

guard 'GOMAXPROCS is read in the elastic branch only'
# runtime.GOMAXPROCS(0) takes the scheduler lock. The driver may call it in
# borrowHelpers, which only a default-option run over the elastic
# threshold reaches, and in the run pool's get when it finds no run to
# lend, a miss that allocates one anyway; a call anywhere else in
# driver.go puts it on the path of every small query.
only_in 'runtime.GOMAXPROCS(0) in driver.go outside borrowHelpers and runPool.get:' \
	'runtime\.GOMAXPROCS\(0\)' driver.go \
	'func borrowHelpers() (helpers, budget int) {' 'func (p *runPool) get() *batchRun {'

guard 'One compile per pattern'
# θ/φ matrices, shift/next tables and the kernel are functions of the
# pattern alone, and plans whose statements share FROM … WHERE share them
# (patternArtifact, built by DB.compilePattern). A second call in the root
# package is a per-plan compile growing back.
for call in 'ComputeMatrices(' 'CompileKernel('; do
	once "$call is called outside the pattern artifact builder, or more than once:" "$call" \
		'sqlts.go: func (db *DB) compilePattern(key patternKey, analysis *query.Compiled) *patternArtifact {'
done

# A statement's pattern is looked up once, from its tokens, before its
# FROM … WHERE is parsed (DB.parse, through query.ParseShared's lookup),
# and the compile takes the artifact that lookup found: a lookup in the
# compile is a second one on the hit path.
once 'the pattern lookup is made outside the statement parse, or more than once:' 'sharedPattern(' \
	'sqlts.go: func (db *DB) parse(sql string) (sel *query.SelectStmt, mode explainMode, hit *patternArtifact, err error) {'

guard 'One memo builder'
# The partition memos are built by the kernel's run builder
# (pattern.Kernel.BuildRun). Its one-cluster case, BuildMasks, is for the
# tests' masks (testutil.Masks) and the benchmark's replay: a batch search
# is handed its masks, so a call anywhere else — the engine's own mask
# build included — is a hand-rolled per-cluster memo loop growing back.
absent 'BuildMasks called outside internal/pattern, internal/testutil and the benchmark harness' \
	'BuildMasks(' -- '*.go' ':!*_test.go' ':!benchmark/' ':!internal/pattern/' ':!internal/testutil/'

guard 'One rollback, decided once per table entry'
# §5 mismatch rule 2 is derived in one place, the step builder newSteps,
# from the tables and the executor's variant; the row loop and the pure
# loop read only the steps, and every variant takes the pure loops
# (Variant.String only names it, and a const block declares them). A line
# whose first character other than a blank is a slash (a comment) is
# exempt.
only_in 'the rollback rule or an ablation variant is read outside the step builder' \
	'^[[:space:]]*[^[:space:]/].*(\.SkipOK([^A-Za-z0-9_]|$)|ShiftOnly|NoCounters|LastRowSkip|j-sh\+1|j - sh \+ 1)' \
	"$(git ls-files ':(glob)internal/engine/*.go' ':(exclude,glob)internal/engine/*_test.go' | tr '\n' ' ')" \
	'const (' 'func newSteps(t *core.Tables, v Variant) []step {' 'func (v Variant) String() string {'
absent 'the pure loops are gated on the OPS configuration again' \
	-E '[!=]=[[:space:]]*(engine\.)?OPSConfig\{' -- '*.go' ':!*_test.go'

guard 'Two serving executors'
# The serving path runs OPS, the paper's system, or naive, its §7
# baseline. Shift-only, no-counters and last-row-skip are OPS variants
# for the experiments (engine.Variant, internal/bench): a run option, an
# ExecutorKind, a stream option or an EXPLAIN line for one in the root
# package is an ablation back on the serving path. And a batch search
# probes the masks it is handed or interprets: SetVectorized and
# UseProjection do nothing, and only the benchmark harness still calls
# them.
absent 'an OPS ablation is back on the serving path' \
	-E 'ShiftOnly|NoCounters|LastRowSkip|shift-only|no-counters|ops\+skip' -- ':(glob)*.go' ':!*_test.go'
absent 'SetVectorized or UseProjection is called outside the benchmark harness' \
	-E '\.(SetVectorized|UseProjection)\(' -- '*.go' ':!*_test.go' ':!benchmark/'

guard 'One partition cache'
# Pattern queries take their clusters and masks from one cache, the
# partition cache (DB.partition, then memoFor). The sharded partition
# cache read slower than it on every measured workload and was deleted;
# SetShards is a no-op. internal/shard stays for the benchmark harness's
# shard.* probes only. Tests may name what they check is gone.
absent 'internal/shard is imported outside the benchmark harness and the package itself' \
	'"sqlts/internal/shard"' -- '*.go' ':!benchmark/' ':!internal/shard/'
absent 'the sharded serving path is back' \
	-E 'shardParts|shardCache|globalOrder|ShardInfo|serveShards|sqlts_shard' -- '*.go' ':!*_test.go' ':!benchmark/' ':!internal/shard/'

guard 'A warm statement is found by its text'
# A cached plan is found under the text it was compiled from, so a warm
# statement is not normalized: the normalizer runs only when that lookup
# misses, inside the plan lookup. The partition key is computed once per
# plan, when it is compiled, and every run of a plan takes a batch run
# its pattern keeps, with its lanes' executors (patternArtifact.runs), so
# a never-seen statement over a cached pattern searches with a warm
# executor; the process-wide lane pool that built an executor per run is
# gone. A result lends its plan's column
# header rather than copying it per run.
once 'the normalizer is called outside the plan lookup, or more than once:' 'normalizeSQL(' \
	'serving.go: func (db *DB) lookupPlan(sql string) (p *Plan, key string) {'
once 'the partition key is computed outside the plan compile, or more than once:' 'partitionKey(' \
	'sqlts.go: func (db *DB) compilePlan(sel *query.SelectStmt, hit *patternArtifact, sql string) (*Plan, error) {'
absent 'the process-wide pool of one-lane run lanes is back' \
	'soloLanes' -- '*.go'
absent 'a run copies its plan'"'"'s column header again' \
	-F 'append([]string(nil), compiled.OutNames' -- sqlts.go

guard 'One run state per pattern'
# What one batch run borrows and learns — its control, its lanes with
# their executors and blocks, its chunk marks and what the driver found —
# is one object (batchRun) that the plan's pattern lends from one
# mutex-guarded pool (runPool) and takes back once the run has succeeded.
# A lane or a run control kept in a lock-free word is a second protocol
# for the same state growing back.
absent 'run state is kept in a lock-free word again: the pattern lends it from its pool' \
	-E 'atomic\.Pointer\[(lane|runControl)\]' -- ':(glob)*.go' ':!*_test.go'

guard 'A result keeps its matches as counters'
# A result records each match as its cluster, its first row and its
# elements' §5 counters, in one block of int32s its caller's lane filled
# (Result.bounds); Result.Matches builds the intervals from them on each
# call. So an executor's match and span blocks are scratch it rewinds
# after every cluster, and nothing hands them to a result: Executor.Adopt,
# which copied a helper's matches into the caller's executor, and
# Executor.Release, which gave a result the executor's blocks, are gone,
# and neither a lane nor a Result holds intervals.
absent 'an executor hands its match blocks to a result again' \
	-E '\.Adopt\(|\.Release\(\)' -- '*.go' ':!benchmark/'
absent 'a lane or a Result holds intervals again' \
	-E '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]+(\[\]ClusterMatches|engine\.Block\[ClusterMatches\])' -- driver.go sqlts.go

guard 'A refresh costs its delta'
# A partition's clusters and their memoized mask sets are held in 64-entry
# blocks (storage.Blocks): a refresh copies the block index and the blocks
# it writes, and the driver, the engine's run loops and EXPLAIN ANALYZE's
# diagnostic pass walk a range of the blocks (engine.Run's Lo and Hi). A
# flat list of clusters or of mask sets on the serving path is the
# whole-index copy per refresh growing back.
absent 'a flat cluster or mask-set list is back on the serving path' \
	-E '\[\]\[\]storage\.Row|\[\]\*pattern\.MaskSet' -- driver.go serving.go sqlts.go explain.go internal/engine/run.go

guard 'One staleness rule'
# What a refresh changed is read off the generations themselves: an
# editor copies a block on its first write (storage.Editor), so a block a
# successor shares with its base is the base's pointer, and memoFor finds
# the clusters a memo must rebuild by comparing the partition's blocks and
# row slices with those the memo was built over. A touch protocol, a list
# of re-sorted clusters handed out of Refresh, or a memo's list of stale
# clusters is that fact tracked by hand again.
absent 'a touch protocol or a list of stale or re-sorted clusters is back' \
	-E 'resorted|\bstale\b|\.Touch\(' -- serving.go internal/storage/blocks.go

guard "A block's closed clusters are booked once"
# A partition memo books each block of its masks once, when it builds the
# block, under the scan of its pattern's default OPS executor: the closed
# clusters' summed counters and a mask of the open ones (engine.Booking,
# made by Scan.Book, the one place the closed form is written).
# OPS.FindRun takes a whole block's closed clusters as one sum and
# searches only the open ones, so its Stats and the flight's progress are
# summed per block. A per-cluster Stats.Add or progress.add in ops.go is
# the per-cluster booking growing back, and a closed-form test outside
# Scan.Book a second copy of the rule.
absent 'the chunk-wide pure loop sums Stats or flight progress per cluster again' \
	-E 'p\.add\(|total\.Add\(' -- internal/engine/ops.go
only_in 'the closed form is tested outside Scan.Book' \
	'c [!=]= n-1' internal/engine/ops.go \
	'func (s Scan) Book(sets []*pattern.MaskSet) Booking {'

guard 'A stream window holds no boxed values'
# A stream window is typed, pointer-free column regions
# (storage.WindowSet/Window): a push decodes its tuple once into the
# slot's regions, a CLUSTER BY column is held once per cluster, and the
# interpreter and SELECT read the window through storage.Seq. A slice of
# rows or values in the stream matcher is the boxed copy of every tuple
# growing back.
absent 'the stream matcher holds rows or boxed values again' \
	-E '\[\]storage\.(Row|Value)\b' -- internal/engine/stream.go

guard 'One of each observation primitive'
# internal/obs holds one latency histogram (obs.Histogram: lock-free, its
# count the sum of its buckets) behind the registry's three _seconds
# families and both statement histograms, and one bounded ring (obs.Ring)
# behind /debug/events and the slow log. The runtime gauges are read by
# the registry's collect hook at every exposition, and a slow event
# reaches callers only through the event sink. Tests may name what they
# check is gone.
absent 'a second histogram or ring, a runtime sampler or a slow-event hook is back' \
	-E 'LatencyHist|type slowLog|StartRuntimeSampler|slowFn' -- '*.go' ':!*_test.go'
# shellcheck disable=SC2046 # the file list is a word list
locked=$(awk '/^type Histogram struct/{h=1} h && /sync\.(RW)?Mutex/{print FILENAME ":" FNR ":" $0} h && /^}/{h=0}' \
	$(git ls-files ':(glob)internal/obs/*.go' ':(exclude,glob)internal/obs/*_test.go'))
if [ -n "$locked" ]; then
	echo "$locked" >&2
	fail 'obs.Histogram holds a mutex: an observation must stay lock-free'
fi

guard 'Every -run alternative in CI names a test'
# A test that a change renames or deletes drops silently out of every CI
# step whose -run list names it. So every alternative of every -run list
# in ci.yml (its |-separated parts; '^$', which names none on purpose, is
# skipped) must match a test that go test -list finds in the packages the
# same command lists.
while IFS=$'\t' read -r run pkgs; do
	[ "$run" = '^$' ] && continue
	# shellcheck disable=SC2086 # pkgs is a word list
	tests=$(go test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')
	IFS='|' read -ra alts <<<"$run"
	for alt in "${alts[@]}"; do
		if ! grep -qE -- "$alt" <<<"$tests"; then
			fail "ci.yml: the -run alternative $alt matches no test in $pkgs"
		fi
	done
done < <(sed -nE "s/.*go test .*-run '([^']*)' (.*)$/\1\t\2/p" .github/workflows/ci.yml)

if [ -n "$failed" ]; then
	echo "failed guards:$failed" >&2
	exit 1
fi
