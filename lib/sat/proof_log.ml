(* Packed append-only proof store; see the .mli for the record layout. *)

type t = {
  record : bool;              (* false: hand out ids, store nothing *)
  mutable index : int array;  (* step id -> offset into [data] *)
  mutable nsteps : int;
  mutable ninputs : int;
  mutable data : int array;
  mutable len : int;
  mutable dels : int array;   (* flattened (pos, id) deletion events *)
  mutable ndels : int;        (* events recorded (pairs, not words) *)
}

let create ?(record = true) () =
  { record;
    index = Array.make 64 0;
    nsteps = 0;
    ninputs = 0;
    data = Array.make 256 0;
    len = 0;
    dels = Array.make 16 0;
    ndels = 0;
  }

let recording t = t.record
let n_steps t = t.nsteps
let n_inputs t = t.ninputs
let n_deletions t = t.ndels
let bytes t = if t.record then 8 * (t.len + t.nsteps + (2 * t.ndels)) else 0

let require_record t what =
  if not t.record then invalid_arg (Printf.sprintf "Proof_log.%s: log records no steps" what)

let next_id t =
  let id = t.nsteps in
  t.nsteps <- id + 1;
  id

(* [Array.blit] into an array of the major heap goes through the write
   barrier element by element; a loop over ints stores directly. *)
let copy (src : int array) (dst : int array) ~at n =
  for i = 0 to n - 1 do
    Array.unsafe_set dst (at + i) (Array.unsafe_get src i)
  done

(* Growth always copies into a fresh array and leaves the old one as it
   was: a {!view} holding the old array keeps reading frozen records. *)
let grown (a : int array) ~used ~need =
  let b = Array.make (max (2 * Array.length a) need) 0 in
  copy a b ~at:0 used;
  b

let reserve_step t =
  if t.nsteps = Array.length t.index then
    t.index <- grown t.index ~used:t.nsteps ~need:(t.nsteps + 1);
  t.index.(t.nsteps) <- t.len;
  next_id t

let reserve_data t n =
  if t.len + n > Array.length t.data then
    t.data <- grown t.data ~used:t.len ~need:(t.len + n)

let push t x =
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let push_lits t lits =
  let nl = Array.length lits in
  copy lits t.data ~at:t.len nl;
  t.len <- t.len + nl

let add_input t ~tag lits =
  if tag < 0 then invalid_arg "Proof_log.add_input: negative tag";
  t.ninputs <- t.ninputs + 1;
  if not t.record then next_id t
  else begin
    let id = reserve_step t in
    let nl = Array.length lits in
    reserve_data t (2 + nl);
    push t (-(tag + 1));
    push t nl;
    push_lits t lits;
    id
  end

let add_derived t ~lits ~first ~chain =
  if not t.record then next_id t
  else begin
    let id = reserve_step t in
    let nl = Array.length lits in
    let nw = Vec.size chain in
    reserve_data t (3 + nl + nw);
    push t first;
    push t nl;
    push_lits t lits;
    push t (nw / 2);
    for i = 0 to nw - 1 do
      Array.unsafe_set t.data (t.len + i) (Vec.unsafe_get chain i)
    done;
    t.len <- t.len + nw;
    id
  end

let delete t id =
  if t.record then begin
    let w = 2 * t.ndels in
    if w + 2 > Array.length t.dels then t.dels <- grown t.dels ~used:w ~need:(w + 2);
    t.dels.(w) <- t.nsteps;
    t.dels.(w + 1) <- id;
    t.ndels <- t.ndels + 1
  end

let tag t id =
  require_record t "tag";
  let h = t.data.(t.index.(id)) in
  if h < 0 then -h - 1 else -1

let view t ~empty ~nvars =
  require_record t "view";
  Proof.of_packed ~index:t.index ~data:t.data ~nsteps:t.nsteps ~deletions:t.dels
    ~ndeletions:t.ndels ~empty ~nvars
