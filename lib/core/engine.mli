(** Uniform façade over every verification engine — the "portfolio"
    interface used by the CLI, the examples and the benchmark harness. *)

open Isr_model

type t =
  | Bmc_only of Bmc.check          (** falsification only *)
  | Itp                            (** Figure 1: standard interpolation *)
  | Itpseq of Bmc.check            (** Figure 2: parallel sequences *)
  | Sitpseq of float * Bmc.check   (** Figure 4: serial sequences (α) *)
  | Itpseq_cba of float * Bmc.check  (** Figure 5: serial sequences + CBA *)
  | Itpseq_pba of float * Bmc.check  (** Section V alternative: PBA *)
  | Kind                           (** k-induction baseline *)
  | Pdr                            (** IC3/PDR baseline *)
  | Portfolio                      (** sequential portfolio of the above *)

val name : t -> string
(** The canonical spelling: ["bmc-assume"], ["itp"], ["itpseq-assume"],
    ["sitpseq0.5-assume"], ["itpseqcba0.5-exact"], ["itpseqpba0-exact"],
    ["kind"], ["pdr"], ["portfolio"], …  Every spelling [name] prints is
    accepted back by {!of_name}. *)

val of_name : string -> (t, string) Result.t
(** Inverse of {!name}, plus convenience shorthands: bare ["bmc"],
    ["itpseq"], ["sitpseq"], ["itpseqcba"], ["itpseqpba"] pick the
    default check (and α where applicable), and the parameterized
    families accept any alpha in the [name] format — e.g.
    ["sitpseq0.25-exact"], ["itpseqcba0.75"].
    [of_name (name e) = Ok e] for every engine [e]. *)

val all : t list
(** The four paper engines, in Table I column order. *)

val stepper : t -> Step.packed option
(** The engine's step-wise kernel form; [None] only for {!Portfolio},
    which is a schedule of kernels rather than a kernel itself (its lanes
    are exposed through {!Portfolio.lanes}). *)

val span : t -> Model.t -> (unit -> 'a) -> 'a
(** [span e m f] runs [f] under the ["engine"] root span of a run of [e]
    on [m], the span every trace and profile of a run is rooted at. *)

val run : t -> ?limits:Budget.limits -> Model.t -> Verdict.t * Verdict.stats
(** A thin driver over the kernel: [Step.start] then [Step.drive] under
    the {!span} (the portfolio drives its lanes through
    {!Sched} instead).  Verdicts are unchanged from the historical
    direct-recursion engines. *)
