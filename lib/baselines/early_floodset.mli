(** Early-deciding uniform consensus in the synchronous crash-stop model —
    the algorithm behind references [4] (Charron-Bost–Schiper) and [11]
    (Keidar–Rajsbaum): global decision by round [min(f + 2, t + 1)] where
    [f] is the number of crashes that {e actually} occur.

    Processes flood estimates as in FloodSet. A process decides its
    estimate at the end of round [r] when [r >= n - h_r + 2], where [h_r]
    counts the processes it heard in round [r], itself included. Every
    process that crashed in rounds [1 .. r-1] is silent in round [r], so at
    most [r - 2] of those [r - 1] rounds saw a crash: one was crash-free,
    and after a crash-free round every live estimate is the same minimum.
    So a decision never disagrees with an estimate some other process can
    still decide on, crashed early deciders included (uniform agreement).
    With [f] crashes, [h_r >= n - f], so the rule fires by round [f + 2];
    unconditionally, round [t + 1] decides (the FloodSet fallback), so the
    bound is [min(f+2, t+1)].

    An earlier rule — decide at the first round [r >= 2] whose sender set
    equals the previous round's — is not uniform once [t >= 3]: a process
    that crashes in round [r] can still reach the decider in round [r].
    The test suite sweeps every serial run with every receiver subset at
    (3,1), (4,1), (4,2) and (4,3), and pins the (7,3) run that broke the
    old rule.

    Section 6 of the paper contrasts exactly these quantities: SCS reaches
    [f + 2] with reliable failure detection, ES needs [f + 2] too but only
    achieves it for [t < n/3] via [A_{f+2}] (and [t < n/2] via the paper's
    follow-up [5]). *)

include Sim.Algorithm.S
