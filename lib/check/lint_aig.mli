(** Structural linting of AIG artifacts.

    {!lint_netlist} checks the netlist that {!Isr_model.Aiger.decode}
    makes of an AIGER file, in either encoding, so an ASCII file and its
    binary form get the same checks: each defect the decoder met becomes
    a diagnostic, and the definitions are checked before any reference
    is resolved, so a cyclic or dangling netlist yields a typed
    diagnostic instead of a bare parse error.  {!lint_model} checks an
    already-built in-memory model.  Checks:

    - [aig.header]: a malformed header, header counts that contradict
      each other, or a malformed definition line (a token that is not a
      number, a negative number, the wrong number of fields, a
      definition by a complemented literal);
    - [aig.truncated]: fewer definition lines (ASCII) or bytes (binary)
      than the header announces;
    - [aig.duplicate_def] / [aig.redefines_constant]: a variable defined
      twice, or variable 0 (the constant) defined at all;
    - [aig.dangling]: a reference to a variable that is never defined;
    - [aig.out_of_range]: a literal beyond the declared maximum index;
    - [aig.cycle]: a combinational cycle through AND definitions;
    - [aig.latch_init]: a latch reset value other than 0 or 1;
    - [aig.unreachable] (warning): AND gates outside every output, bad
      and next-state cone;
    - [aig.no_output] (warning): no output or bad line at all;
    - [aig.const_bad] (warning, {!lint_model} only): the property is
      structurally constant. *)

open Isr_aig
open Isr_model

val lint_netlist : Aiger.netlist -> Diag.t list
(** The decoder's defects, then the structural checks, in file order. *)

val lint_model : Model.t -> Diag.t list
(** Structural checks on an in-memory model: array-length consistency,
    cone support inside the declared inputs and latches
    ([aig.support]), unreachable AND nodes ([aig.unreachable]) and a
    structurally constant property ([aig.const_bad]). *)

val unreachable_ands : Model.t -> int
(** Number of AND nodes of the manager outside every next-state and bad
    cone (exposed for tests). *)

val lint_cone : ?check:string -> Aig.man -> shared:(int -> bool) -> Aig.lit -> Diag.t list
(** [lint_cone man ~shared l] reports an error (check name [check],
    default ["aig.support"]) for every structural input of [l] outside
    the [shared] set — the raw check behind the interpolant linter. *)
