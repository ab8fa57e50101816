(* A read-only view of a paged proof log; see proof_log.mli for the
   record layout:
     input:    [-(tag+1); nlits; lit...]
     derived:  [first;    nlits; lit...; nchain; pivot; aid; ...] *)

let page_bits = 16
let page_mask = (1 lsl page_bits) - 1

(* Only offset 0 of a page longer than [1 lsl page_bits] is addressable:
   such a page holds one record. *)
let address ~page ~offset =
  assert (offset <= page_mask);
  (page lsl page_bits) lor offset

let page_of a = a lsr page_bits
let offset_of a = a land page_mask

type t = {
  index : int array;          (* step id -> address of its record (see [address]) *)
  pages : int array array;
  nsteps : int;
  empty : int;
  nvars : int;
  dels : int array;           (* flattened (pos, id) deletion events *)
  ndels : int;
  mutable used : int array option;  (* memo: ascending ids of the used cone *)
}

let of_packed ~index ~pages ~nsteps ~deletions ~ndeletions ~empty ~nvars =
  if empty < 0 || empty >= nsteps then invalid_arg "Proof.of_packed: bad empty id";
  { index; pages; nsteps; empty; nvars; dels = deletions; ndels = ndeletions; used = None }

let n_steps p = p.nsteps
let empty p = p.empty
let nvars p = p.nvars
let n_deletions p = p.ndels

(* A record lies within one page: its page, and its offset there. *)
let page p id = p.pages.(page_of p.index.(id))
let at p id = offset_of p.index.(id)

let head p id = (page p id).(at p id)
let is_input p id = head p id < 0

let tag p id =
  let h = head p id in
  if h < 0 then -h - 1 else -1

let nlits p id = (page p id).(at p id + 1)
let lit p id k = (page p id).(at p id + 2 + k)
let lits p id =
  let d = page p id and o = at p id in
  Array.sub d (o + 2) d.(o + 1)

let first p id = head p id

let fold_lits p id f acc =
  let d = page p id and o = at p id in
  let acc = ref acc in
  for i = o + 2 to o + 1 + d.(o + 1) do
    acc := f !acc d.(i)
  done;
  !acc

(* Offset of a derived step's [nchain] word in its page. *)
let chain_at p id =
  let o = at p id in
  o + 2 + (page p id).(o + 1)

let chain_length p id = (page p id).(chain_at p id)
let pivot p id k = (page p id).(chain_at p id + 1 + (2 * k))
let antecedent p id k = (page p id).(chain_at p id + 2 + (2 * k))

let fold_chain p id f acc =
  let d = page p id and c = chain_at p id in
  let acc = ref acc in
  for k = 0 to d.(c) - 1 do
    acc := f !acc d.(c + 1 + (2 * k)) d.(c + 2 + (2 * k))
  done;
  !acc

type step =
  | Input of { lits : Lit.t array; tag : int }
  | Derived of { lits : Lit.t array; first : int; chain : (int * int) array }

let step p id =
  if is_input p id then Input { lits = lits p id; tag = tag p id }
  else
    Derived
      {
        lits = lits p id;
        first = first p id;
        chain = Array.init (chain_length p id) (fun k -> (pivot p id k, antecedent p id k));
      }

let tag_range p =
  let lo = ref max_int and hi = ref 0 in
  for id = 0 to p.nsteps - 1 do
    let h = head p id in
    if h < 0 then begin
      let tag = -h - 1 in
      if tag < !lo then lo := tag;
      if tag > !hi then hi := tag
    end
  done;
  (!lo, !hi)

let var_tag_ranges p =
  let minp = Array.make p.nvars max_int and maxp = Array.make p.nvars 0 in
  for id = 0 to p.nsteps - 1 do
    let d = page p id and o = at p id in
    let h = d.(o) in
    if h < 0 then begin
      let tag = -h - 1 in
      for i = o + 2 to o + 1 + d.(o + 1) do
        let v = Lit.var d.(i) in
        if tag < minp.(v) then minp.(v) <- tag;
        if tag > maxp.(v) then maxp.(v) <- tag
      done
    end
  done;
  (minp, maxp)

(* Antecedents always have smaller ids, and no used step lies above the
   empty clause: one backwards sweep from it marks the cone, and one
   forward pass over the marks lists it in ascending order. *)
let used p =
  match p.used with
  | Some u -> u
  | None ->
    let mark = Bytes.make (p.empty + 1) '\000' in
    Bytes.set mark p.empty '\001';
    let count = ref 0 in
    for id = p.empty downto 0 do
      if Bytes.get mark id = '\001' then begin
        incr count;
        let d = page p id and o = at p id in
        let h = d.(o) in
        if h >= 0 then begin
          Bytes.set mark h '\001';
          let c = o + 2 + d.(o + 1) in
          for k = 0 to d.(c) - 1 do
            Bytes.set mark d.(c + 2 + (2 * k)) '\001'
          done
        end
      end
    done;
    let u = Array.make !count 0 in
    let n = ref 0 in
    for id = 0 to p.empty do
      if Bytes.get mark id = '\001' then begin
        u.(!n) <- id;
        incr n
      end
    done;
    p.used <- Some u;
    u

let is_used p id =
  let u = used p in
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let x = u.(mid) in
    x = id || if x < id then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length u)

let core p = Array.fold_right (fun id acc -> if is_input p id then id :: acc else acc) (used p) []

let core_tags p = core p |> List.map (tag p) |> List.sort_uniq Int.compare

(* LRAT-style export.  Clauses are renumbered inputs-first: inputs take
   ids 1..m in step order (matching their position in [to_dimacs]), used
   derived steps continue from m+1 in step order — antecedents always
   precede their resolvents, so ids stay strictly increasing.  The RUP
   hint order for a trivial resolution chain is the reversed chain
   followed by [first]: assuming the negation of the derived clause,
   every literal of chain clause i other than its pivot literal is
   either a literal of the derived clause (assumed false) or the pivot
   of a later chain position (already propagated false), so each hint
   propagates its pivot literal and [first] closes the conflict. *)

let to_dimacs p =
  let buf = Buffer.create 1024 in
  let ninputs = ref 0 in
  for id = 0 to p.nsteps - 1 do
    if is_input p id then incr ninputs
  done;
  Printf.bprintf buf "p cnf %d %d\n" p.nvars !ninputs;
  for id = 0 to p.nsteps - 1 do
    if is_input p id then begin
      for k = 0 to nlits p id - 1 do
        Printf.bprintf buf "%d " (Lit.to_dimacs (lit p id k))
      done;
      Buffer.add_string buf "0\n"
    end
  done;
  Buffer.contents buf

let to_lrat p =
  let newid = Array.make p.nsteps 0 in
  let next = ref 0 in
  for id = 0 to p.nsteps - 1 do
    if is_input p id then begin
      incr next;
      newid.(id) <- !next
    end
  done;
  let buf = Buffer.create 1024 in
  (* Deletion events are interleaved at their recorded positions: all
     events with [pos <= i] are flushed before step [i]'s addition line.
     A deleted clause was created before its deletion ([id < pos]), so
     any used clause named by a flushed event already carries its new
     id; events naming unused derived clauses are dropped (the checker
     never saw an addition to delete). *)
  let di = ref 0 in
  let flush_deletions upto =
    let ids = ref [] in
    while !di < p.ndels && p.dels.(2 * !di) <= upto do
      let id = p.dels.((2 * !di) + 1) in
      if newid.(id) > 0 then ids := newid.(id) :: !ids;
      incr di
    done;
    match List.rev !ids with
    | [] -> ()
    | ids ->
      Printf.bprintf buf "%d d" !next;
      List.iter (fun id -> Printf.bprintf buf " %d" id) ids;
      Buffer.add_string buf " 0\n"
  in
  Array.iter
    (fun i ->
      if not (is_input p i) then begin
        flush_deletions i;
        incr next;
        newid.(i) <- !next;
        Printf.bprintf buf "%d" !next;
        for k = 0 to nlits p i - 1 do
          Printf.bprintf buf " %d" (Lit.to_dimacs (lit p i k))
        done;
        Buffer.add_string buf " 0";
        for k = chain_length p i - 1 downto 0 do
          Printf.bprintf buf " %d" newid.(antecedent p i k)
        done;
        Printf.bprintf buf " %d 0\n" newid.(first p i)
      end)
    (used p);
  Buffer.contents buf
