//! Assembly kernels with classic branch structures, used as PC-accurate
//! trace sources and as end-to-end tests of the machine.
//!
//! Each kernel exposes its assembly text through a `*_source` builder so
//! the same program the tracer executes can also be assembled and handed
//! to static analysis (`bpred-cfa`) — the trace and the CFG provably
//! come from one artefact.

use bpred_trace::{RecordSink, Trace};

use crate::asm::assemble;
use crate::machine::{BranchObservation, Machine};

/// Builds and runs a kernel, returning its branch trace.
fn run_kernel(name: &str, source: &str, memory_words: usize, max_steps: u64) -> Trace {
    let mut trace = Trace::new(name);
    run_kernel_observed(
        name,
        source,
        memory_words,
        max_steps,
        &mut trace,
        &mut |_| {},
    );
    trace
}

/// Builds and runs a kernel, pushing its branch records into `sink` and
/// streaming every conditional branch (with its observed operand
/// values) to `observe` — the dynamic ground truth the `cfa/absint`
/// soundness audit compares against.
fn run_kernel_observed(
    name: &str,
    source: &str,
    memory_words: usize,
    max_steps: u64,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let program =
        assemble(source).unwrap_or_else(|e| panic!("kernel `{name}` failed to assemble: {e}"));
    let mut machine = Machine::with_memory(program, memory_words);
    machine
        .run_observed(max_steps, sink, observe)
        .unwrap_or_else(|e| panic!("kernel `{name}` failed to run: {e}"));
}

/// Assembly text of the [`bubble_sort`] kernel.
///
/// # Panics
///
/// Panics if `n` is 0 or too large for the kernel's memory (`n > 4000`).
#[must_use]
pub fn bubble_sort_source(n: usize) -> String {
    assert!(
        (1..=4000).contains(&n),
        "bubble_sort supports 1..=4000 elements, got {n}"
    );
    format!(
        r"
        ; r1 = n, r2 = i, r3 = j, r4/r5 = elements, r6 = addr
            li   r1, {n}
            li   r2, 0
        fill:                        ; a[i] = n - i  (descending)
            sub  r4, r1, r2
            sw   r4, (r2)
            addi r2, r2, 1
            blt  r2, r1, fill
            li   r2, 0
        outer:
            li   r3, 0
            sub  r7, r1, r2          ; limit = n - i - 1
            addi r7, r7, -1
        inner:
            lw   r4, (r3)
            lw   r5, 1(r3)
            ble  r4, r5, noswap      ; in order?
            sw   r5, (r3)            ; swap
            sw   r4, 1(r3)
        noswap:
            addi r3, r3, 1
            blt  r3, r7, inner
            addi r2, r2, 1
            sub  r8, r1, r2
            addi r8, r8, -1
            bgt  r8, r0, outer
            halt
        "
    )
}

/// Bubble-sorts `n` words of a worst-case (descending) array.
///
/// Branch profile: a strongly taken inner-loop branch, a swap branch that
/// starts 100% taken and decays, and loop-exit branches.
///
/// # Panics
///
/// Panics if `n` is 0 or too large for the kernel's memory (`n > 4000`).
#[must_use]
pub fn bubble_sort(n: usize) -> Trace {
    let source = bubble_sort_source(n);
    run_kernel("sim-bubble-sort", &source, n + 64, 200_000_000)
}

/// [`bubble_sort`], pushing its branch records into `sink` and streaming
/// per-branch operand observations to `observe`.
///
/// # Panics
///
/// See [`bubble_sort`].
pub fn bubble_sort_observed(
    n: usize,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let source = bubble_sort_source(n);
    run_kernel_observed(
        "sim-bubble-sort",
        &source,
        n + 64,
        200_000_000,
        sink,
        observe,
    );
}

/// Assembly text of the [`binary_search`] kernel.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 100_000`.
#[must_use]
pub fn binary_search_source(n: usize, queries: usize) -> String {
    assert!(
        (2..=100_000).contains(&n),
        "binary_search needs 2..=100000 elements, got {n}"
    );
    format!(
        r"
        ; a[i] = 2*i ; probe odd and even keys pseudo-randomly
            li   r1, {n}
            li   r2, 0
        fill:
            add  r3, r2, r2
            sw   r3, (r2)
            addi r2, r2, 1
            blt  r2, r1, fill

            li   r10, {queries}      ; remaining queries
            li   r11, 88172645       ; xorshift state
        query:
            ; xorshift step
            li   r12, 13
            sll  r13, r11, r12
            xor  r11, r11, r13
            li   r12, 7
            srl  r13, r11, r12
            xor  r11, r11, r13
            li   r12, 17
            sll  r13, r11, r12
            xor  r11, r11, r13
            ; key = state mod 2n, kept non-negative
            add  r14, r1, r1
            rem  r15, r11, r14
            blt  r15, r0, fixup
            j    search
        fixup:
            add  r15, r15, r14
        search:
            li   r4, 0               ; lo
            mv   r5, r1              ; hi (exclusive)
        bsloop:
            bge  r4, r5, done        ; empty range?
            add  r6, r4, r5
            li   r7, 2
            div  r6, r6, r7          ; mid
            lw   r8, (r6)
            beq  r8, r15, done       ; found
            blt  r8, r15, goright
            mv   r5, r6              ; hi = mid
            j    bsloop
        goright:
            addi r4, r6, 1           ; lo = mid + 1
            j    bsloop
        done:
            addi r10, r10, -1
            bgt  r10, r0, query
            halt
        "
    )
}

/// Repeated binary search over a sorted array: `queries` probes into `n`
/// elements, with a pseudo-random key sequence generated in-register.
///
/// Branch profile: data-dependent compare branches near 50/50 (hard for
/// bimodal, partly learnable with history), plus biased loop branches.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 100_000`.
#[must_use]
pub fn binary_search(n: usize, queries: usize) -> Trace {
    let source = binary_search_source(n, queries);
    run_kernel("sim-binary-search", &source, n + 64, 500_000_000)
}

/// [`binary_search`], pushing its branch records into `sink` and streaming
/// per-branch operand observations to `observe`.
///
/// # Panics
///
/// See [`binary_search`].
pub fn binary_search_observed(
    n: usize,
    queries: usize,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let source = binary_search_source(n, queries);
    run_kernel_observed(
        "sim-binary-search",
        &source,
        n + 64,
        500_000_000,
        sink,
        observe,
    );
}

/// Assembly text of the [`sieve`] kernel.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 500_000`.
#[must_use]
pub fn sieve_source(n: usize) -> String {
    assert!(
        (4..=500_000).contains(&n),
        "sieve supports 4..=500000, got {n}"
    );
    format!(
        r"
        ; mem[i] = 1 if composite
            li   r1, {n}
            li   r2, 2               ; candidate p
        outer:
            mul  r3, r2, r2
            bge  r3, r1, count       ; p*p >= n: done marking
            lw   r4, (r2)
            bne  r4, r0, next        ; already composite
            mv   r5, r3              ; j = p*p
        mark:
            li   r6, 1
            sw   r6, (r5)
            add  r5, r5, r2
            blt  r5, r1, mark
        next:
            addi r2, r2, 1
            j    outer
        count:
            li   r7, 0               ; prime count
            li   r2, 2
        cloop:
            lw   r4, (r2)
            bne  r4, r0, notprime
            addi r7, r7, 1
        notprime:
            addi r2, r2, 1
            blt  r2, r1, cloop
            sw   r7, (r0)            ; store count at word 0
            halt
        "
    )
}

/// Sieve of Eratosthenes up to `n`.
///
/// Branch profile: the composite-marking inner loop is strongly taken;
/// the "is prime?" test branch is weakly biased early and strongly biased
/// late.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 500_000`.
#[must_use]
pub fn sieve(n: usize) -> Trace {
    let source = sieve_source(n);
    run_kernel("sim-sieve", &source, n + 64, 500_000_000)
}

/// [`sieve`], pushing its branch records into `sink` and streaming
/// per-branch operand observations to `observe`.
///
/// # Panics
///
/// See [`sieve`].
pub fn sieve_observed(
    n: usize,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let source = sieve_source(n);
    run_kernel_observed("sim-sieve", &source, n + 64, 500_000_000, sink, observe);
}

/// Assembly text of the [`string_search`] kernel.
///
/// # Panics
///
/// Panics if `text_len < 16` or `text_len > 200_000`.
#[must_use]
pub fn string_search_source(text_len: usize) -> String {
    assert!(
        (16..=200_000).contains(&text_len),
        "string_search supports 16..=200000 text bytes, got {text_len}"
    );
    format!(
        r"
        ; text[i] = i*i mod 4 ; pattern = [1, 0, 1] stored after text
            li   r1, {text_len}
            li   r2, 0
        fill:
            mul  r3, r2, r2
            li   r4, 4
            rem  r3, r3, r4
            sw   r3, (r2)
            addi r2, r2, 1
            blt  r2, r1, fill
            ; pattern at text_len..text_len+3
            li   r5, 1
            sw   r5, (r1)
            sw   r0, 1(r1)
            sw   r5, 2(r1)

            li   r10, 0              ; match count
            li   r2, 0               ; i
            addi r9, r1, -3          ; last start
        scan:
            li   r6, 0               ; k
        cmp:
            add  r7, r2, r6
            lw   r7, (r7)
            add  r8, r1, r6
            lw   r8, (r8)
            bne  r7, r8, nomatch
            addi r6, r6, 1
            li   r8, 3
            blt  r6, r8, cmp
            addi r10, r10, 1         ; full match
        nomatch:
            addi r2, r2, 1
            ble  r2, r9, scan
            sw   r10, (r0)
            halt
        "
    )
}

/// Naive substring search of a repetitive pattern in a synthetic text —
/// many near-miss partial matches, the classic mispredict generator.
///
/// # Panics
///
/// Panics if `text_len < 16` or `text_len > 200_000`.
#[must_use]
pub fn string_search(text_len: usize) -> Trace {
    let source = string_search_source(text_len);
    run_kernel("sim-string-search", &source, text_len + 64, 500_000_000)
}

/// Assembly text of the [`quicksort`] kernel.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 50_000`.
#[must_use]
pub fn quicksort_source(n: usize) -> String {
    assert!(
        (4..=50_000).contains(&n),
        "quicksort supports 4..=50000 elements, got {n}"
    );
    // Memory layout: a[0..n] data; stack of (lo, hi) pairs after it.
    format!(
        r"
        ; fill a[i] with xorshift values (kept non-negative)
              li   r1, {n}
              li   r2, 0
              li   r11, 2463534242
        fill: li   r12, 13
              sll  r13, r11, r12
              xor  r11, r11, r13
              li   r12, 7
              srl  r13, r11, r12
              xor  r11, r11, r13
              li   r12, 17
              sll  r13, r11, r12
              xor  r11, r11, r13
              li   r14, 1048575
              and  r15, r11, r14
              sw   r15, (r2)
              addi r2, r2, 1
              blt  r2, r1, fill

        ; stack base at n (pairs of words); push (0, n-1)
              mv   r20, r1           ; stack pointer (word index)
              sw   r0, (r20)         ; lo = 0
              addi r21, r1, -1
              sw   r21, 1(r20)       ; hi = n-1
              addi r20, r20, 2
        mainloop:
              ble  r20, r1, done     ; stack empty?
              addi r20, r20, -2      ; pop
              lw   r2, (r20)         ; lo
              lw   r3, 1(r20)        ; hi
              bge  r2, r3, mainloop  ; trivial partition
              call partition         ; returns pivot index in r4
              ; push (lo, p-1)
              sw   r2, (r20)
              addi r5, r4, -1
              sw   r5, 1(r20)
              addi r20, r20, 2
              ; push (p+1, hi)
              addi r5, r4, 1
              sw   r5, (r20)
              sw   r3, 1(r20)
              addi r20, r20, 2
              j    mainloop

        ; Lomuto partition of a[r2..=r3]; pivot a[r3]; result in r4
        partition:
              lw   r6, (r3)          ; pivot value
              mv   r4, r2            ; store index i
              mv   r7, r2            ; scan index j
        ploop:
              bge  r7, r3, pdone
              lw   r8, (r7)
              bgt  r8, r6, pskip     ; a[j] > pivot?
              ; swap a[i], a[j]
              lw   r9, (r4)
              sw   r8, (r4)
              sw   r9, (r7)
              addi r4, r4, 1
        pskip:
              addi r7, r7, 1
              j    ploop
        pdone:
              ; swap a[i], a[hi]
              lw   r9, (r4)
              lw   r10, (r3)
              sw   r10, (r4)
              sw   r9, (r3)
              ret
        done:
              halt
        "
    )
}

/// Iterative quicksort with an explicit stack over pseudo-random data.
///
/// Branch profile: data-dependent partition compares (roughly 50/50
/// against the pivot), stack-empty loop tests, and trivial-partition
/// cutoffs, with call/return events from the partition subroutine.
///
/// # Panics
///
/// Panics if `n < 4` or `n > 50_000`.
#[must_use]
pub fn quicksort(n: usize) -> Trace {
    let source = quicksort_source(n);
    run_kernel("sim-quicksort", &source, 2 * n + 64, 600_000_000)
}

/// [`quicksort`], pushing its branch records into `sink` and streaming
/// per-branch operand observations to `observe`.
///
/// # Panics
///
/// See [`quicksort`].
pub fn quicksort_observed(
    n: usize,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let source = quicksort_source(n);
    run_kernel_observed(
        "sim-quicksort",
        &source,
        2 * n + 64,
        600_000_000,
        sink,
        observe,
    );
}

/// Assembly text of the [`matmul`] kernel.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 120`.
#[must_use]
pub fn matmul_source(n: usize) -> String {
    assert!((2..=120).contains(&n), "matmul supports 2..=120, got {n}");
    let (a_base, b_base, c_base) = (0, n * n, 2 * n * n);
    format!(
        r"
        ; A[i*n+j] = i+j, B = i-j+n; C = A*B
              li   r1, {n}
              li   r2, 0             ; i
        initi:li   r3, 0             ; j
        initj:mul  r4, r2, r1
              add  r4, r4, r3        ; i*n+j
              add  r5, r2, r3
              addi r6, r4, {a_base}
              sw   r5, (r6)
              sub  r5, r2, r3
              add  r5, r5, r1
              addi r6, r4, {b_base}
              sw   r5, (r6)
              addi r3, r3, 1
              blt  r3, r1, initj
              addi r2, r2, 1
              blt  r2, r1, initi

              li   r2, 0             ; i
        iloop:li   r3, 0             ; j
        jloop:li   r7, 0             ; acc
              li   r8, 0             ; k
        kloop:mul  r9, r2, r1
              add  r9, r9, r8
              addi r9, r9, {a_base}
              lw   r10, (r9)         ; A[i][k]
              mul  r9, r8, r1
              add  r9, r9, r3
              addi r9, r9, {b_base}
              lw   r11, (r9)         ; B[k][j]
              mul  r12, r10, r11
              add  r7, r7, r12
              addi r8, r8, 1
              blt  r8, r1, kloop
              mul  r9, r2, r1
              add  r9, r9, r3
              addi r9, r9, {c_base}
              sw   r7, (r9)
              addi r3, r3, 1
              blt  r3, r1, jloop
              addi r2, r2, 1
              blt  r2, r1, iloop
              halt
        "
    )
}

/// Dense matrix multiply `C = A * B` of `n x n` matrices: the
/// loop-nest workload whose branches are almost perfectly predictable
/// (three nested counted loops).
///
/// # Panics
///
/// Panics if `n < 2` or `n > 120`.
#[must_use]
pub fn matmul(n: usize) -> Trace {
    let source = matmul_source(n);
    run_kernel("sim-matmul", &source, 3 * n * n + 64, 600_000_000)
}

/// [`matmul`], pushing its branch records into `sink` and streaming
/// per-branch operand observations to `observe`.
///
/// # Panics
///
/// See [`matmul`].
pub fn matmul_observed(
    n: usize,
    sink: &mut dyn RecordSink,
    observe: &mut dyn FnMut(&BranchObservation),
) {
    let source = matmul_source(n);
    run_kernel_observed(
        "sim-matmul",
        &source,
        3 * n * n + 64,
        600_000_000,
        sink,
        observe,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_sort_sorts() {
        // Validate through the machine state by re-running manually.
        let t = bubble_sort(30);
        assert!(t.conditional().count() > 400, "O(n^2) branches expected");
        // The swap branch (ble ... noswap) is never taken on a descending
        // input during the first pass, so both outcomes must appear.
        assert!(t.conditional().any(|r| r.taken));
        assert!(t.conditional().any(|r| !r.taken));
    }

    #[test]
    fn sieve_counts_primes_correctly() {
        let program = assemble_and_count(100);
        assert_eq!(program, 25, "there are 25 primes below 100");
    }

    fn assemble_and_count(n: usize) -> i64 {
        // Re-run the sieve kernel and read the prime count from memory.
        let source_trace = sieve(n);
        assert!(!source_trace.is_empty());
        // Independent check: rebuild from the shared source builder and
        // inspect memory.
        let program = crate::asm::assemble(&sieve_source(n)).unwrap();
        let mut m = Machine::with_memory(program, n + 64);
        m.run(10_000_000).unwrap();
        m.memory_word(0).unwrap()
    }

    #[test]
    fn binary_search_terminates_and_branches_are_mixed() {
        let t = binary_search(256, 200);
        let stats = t.stats();
        assert!(stats.dynamic_conditional > 1000);
        // The compare branches must not be uniformly biased.
        assert!(stats.taken_rate() > 0.2 && stats.taken_rate() < 0.95);
    }

    #[test]
    fn string_search_finds_periodic_pattern() {
        // text[i] = i^2 mod 4 cycles 0,1,0,1 for odd/even i; pattern 1,0,1
        // occurs regularly, so matches and near-misses both appear.
        let t = string_search(512);
        assert!(t.conditional().count() > 900);
    }

    #[test]
    fn kernels_are_deterministic() {
        assert_eq!(bubble_sort(20), bubble_sort(20));
        assert_eq!(binary_search(64, 50), binary_search(64, 50));
        assert_eq!(quicksort(100), quicksort(100));
    }

    #[test]
    fn every_source_builder_assembles() {
        for (name, source) in [
            ("bubble-sort", bubble_sort_source(16)),
            ("binary-search", binary_search_source(16, 8)),
            ("sieve", sieve_source(64)),
            ("string-search", string_search_source(64)),
            ("quicksort", quicksort_source(32)),
            ("matmul", matmul_source(4)),
        ] {
            let program = crate::asm::assemble(&source)
                .unwrap_or_else(|e| panic!("{name} source does not assemble: {e}"));
            assert!(!program.instructions.is_empty(), "{name}");
        }
    }

    #[test]
    fn quicksort_traces_calls_and_balanced_compares() {
        let n = 200;
        let trace = quicksort(n);
        assert!(trace.conditional().count() > 1000);
        assert!(
            trace
                .iter()
                .any(|r| r.kind == bpred_trace::BranchKind::Call),
            "partition calls must be traced"
        );
        assert!(
            trace
                .iter()
                .any(|r| r.kind == bpred_trace::BranchKind::Return),
            "partition returns must be traced"
        );
        // The partition compare must be roughly balanced on random data.
        let stats = trace.stats();
        assert!(
            stats.taken_rate() > 0.15 && stats.taken_rate() < 0.9,
            "taken rate {}",
            stats.taken_rate()
        );
    }

    #[test]
    fn matmul_is_loop_dominated() {
        let t = matmul(12);
        let stats = t.stats();
        // Counted loops: almost all conditional branches are the
        // backward loop tests, strongly taken.
        assert!(
            stats.strongly_biased_fraction() > 0.9,
            "{}",
            stats.strongly_biased_fraction()
        );
        assert!(stats.dynamic_conditional > 1_000);
    }

    #[test]
    fn kernel_traces_carry_names() {
        assert_eq!(sieve(50).name(), "sim-sieve");
        assert_eq!(bubble_sort(10).name(), "sim-bubble-sort");
    }
}
