(* Packed append-only proof store; see the .mli for the record layout. *)

type t = {
  record : bool;              (* false: hand out ids, store nothing *)
  mutable index : int array;  (* step id -> offset into [data] *)
  mutable nsteps : int;
  mutable ninputs : int;
  mutable data : int array;
  mutable len : int;
  dels : Vec.t;               (* flattened (pos, id) deletion events *)
}

let create ?(record = true) () =
  { record;
    index = Array.make 64 0;
    nsteps = 0;
    ninputs = 0;
    data = Array.make 256 0;
    len = 0;
    dels = Vec.create ();
  }

let recording t = t.record
let n_steps t = t.nsteps
let n_inputs t = t.ninputs
let n_deletions t = Vec.size t.dels / 2
let bytes t = if t.record then 8 * (t.len + t.nsteps + Vec.size t.dels) else 0

let require_record t what =
  if not t.record then invalid_arg (Printf.sprintf "Proof_log.%s: log records no steps" what)

let next_id t =
  let id = t.nsteps in
  t.nsteps <- id + 1;
  id

let reserve_step t =
  if t.nsteps = Array.length t.index then begin
    let a = Array.make (2 * t.nsteps) 0 in
    Array.blit t.index 0 a 0 t.nsteps;
    t.index <- a
  end;
  t.index.(t.nsteps) <- t.len;
  next_id t

let reserve_data t n =
  let cap = Array.length t.data in
  if t.len + n > cap then begin
    let a = Array.make (max (2 * cap) (t.len + n)) 0 in
    Array.blit t.data 0 a 0 t.len;
    t.data <- a
  end

let push t x =
  t.data.(t.len) <- x;
  t.len <- t.len + 1

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
    Array.iter (push t) lits;
    id
  end

let add_derived t ~lits ~first ~chain =
  if not t.record then next_id t
  else begin
    let id = reserve_step t in
    let nl = Array.length lits in
    let nc = List.length chain in
    reserve_data t (3 + nl + (2 * nc));
    push t first;
    push t nl;
    Array.iter (push t) lits;
    push t nc;
    List.iter
      (fun (pivot, aid) ->
        push t pivot;
        push t aid)
      chain;
    id
  end

let delete t id =
  if t.record then begin
    Vec.push t.dels t.nsteps;
    Vec.push t.dels id
  end

let is_input t id =
  require_record t "is_input";
  t.data.(t.index.(id)) < 0

let tag t id =
  require_record t "tag";
  let h = t.data.(t.index.(id)) in
  if h < 0 then -h - 1 else -1

let materialize t id =
  let o = t.index.(id) in
  let h = t.data.(o) in
  let nl = t.data.(o + 1) in
  let lits = Array.sub t.data (o + 2) nl in
  if h < 0 then Proof.Input { lits; tag = -h - 1 }
  else begin
    let co = o + 2 + nl in
    let nc = t.data.(co) in
    let chain =
      Array.init nc (fun k -> (t.data.(co + 1 + (2 * k)), t.data.(co + 2 + (2 * k))))
    in
    Proof.Derived { lits; first = h; chain }
  end

let to_proof ?(trim = true) t ~empty ~nvars =
  require_record t "to_proof";
  let n = t.nsteps in
  if empty < 0 || empty >= n then invalid_arg "Proof_log.to_proof: bad empty id";
  let used = Array.make n false in
  used.(empty) <- true;
  if trim then
    (* Antecedents always have smaller ids: one backwards sweep. *)
    for id = n - 1 downto 0 do
      if used.(id) then begin
        let o = t.index.(id) in
        let h = t.data.(o) in
        if h >= 0 then begin
          used.(h) <- true;
          let co = o + 2 + t.data.(o + 1) in
          let nc = t.data.(co) in
          for k = 0 to nc - 1 do
            used.(t.data.(co + 2 + (2 * k))) <- true
          done
        end
      end
    done;
  let steps =
    Array.init n (fun id ->
        (* Inputs survive trimming: interpolation labels variables by
           their occurrences across all input clauses. *)
        if (not trim) || used.(id) || is_input t id then materialize t id
        else Proof.Trimmed)
  in
  let ndel = n_deletions t in
  let deletions =
    Array.init ndel (fun k -> (Vec.get t.dels (2 * k), Vec.get t.dels ((2 * k) + 1)))
  in
  { Proof.steps; empty; nvars; deletions }
