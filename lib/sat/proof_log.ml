(* Packed append-only proof store; see the .mli for the record layout. *)

let page_words = 1 lsl Proof.page_bits

type t = {
  record : bool;              (* false: hand out ids, store nothing *)
  mutable index : int array;  (* step id -> address of its record (see Proof) *)
  mutable nsteps : int;
  mutable ninputs : int;
  mutable pages : int array array;  (* pages [0 .. npages - 1]; the last is written *)
  mutable npages : int;
  mutable page : int array;   (* [pages.(npages - 1)] *)
  mutable fill : int;         (* words written to [page] *)
  mutable words : int;        (* words written to every page *)
  mutable dels : int array;   (* flattened (pos, id) deletion events *)
  mutable ndels : int;        (* events recorded (pairs, not words) *)
}

let create ?(record = true) () =
  { record;
    index = Array.make 64 0;
    nsteps = 0;
    ninputs = 0;
    pages = [||];
    npages = 0;
    page = [||];
    fill = 0;
    words = 0;
    dels = Array.make 16 0;
    ndels = 0;
  }

let recording t = t.record
let n_steps t = t.nsteps
let n_inputs t = t.ninputs
let n_deletions t = t.ndels
let bytes t = if t.record then 8 * (t.words + t.nsteps + (2 * t.ndels)) else 0

let require_record t what =
  if not t.record then invalid_arg (Printf.sprintf "Proof_log.%s: log records no steps" what)

let next_id t =
  let id = t.nsteps in
  t.nsteps <- id + 1;
  id

(* Growth copies into a fresh array and leaves the old one as it was: a
   {!view} holding the old array keeps reading frozen records.  The step
   index and the deletion events grow so. *)
let grown (a : int array) ~used ~need =
  let b = Array.make (max (2 * Array.length a) need) 0 in
  Vec.blit_ints a 0 b 0 used;
  b

let reserve_steps t n =
  if n < 0 then invalid_arg "Proof_log.reserve_steps: negative count";
  if t.record && t.nsteps + n > Array.length t.index then
    t.index <- grown t.index ~used:t.nsteps ~need:(t.nsteps + n)

let reserve_step t =
  if t.nsteps = Array.length t.index then
    t.index <- grown t.index ~used:t.nsteps ~need:(t.nsteps + 1);
  t.index.(t.nsteps) <- Proof.address ~page:(t.npages - 1) ~offset:t.fill;
  next_id t

let first_page_words = 256

(* Room for a record of [n] words in the current page.  A record that
   does not fit opens a new page, twice as long as the current one up
   to [page_words] (the first is [first_page_words]), so a small log
   costs what one growing array would; a record longer than that gets a
   page of its own length.  No word is ever copied.  Called before
   [reserve_step], which reads the address. *)
let reserve_data t n =
  if t.fill + n > Array.length t.page then begin
    if t.npages = Array.length t.pages then begin
      let p = Array.make (max 4 (2 * t.npages)) [||] in
      Array.blit t.pages 0 p 0 t.npages;
      t.pages <- p
    end;
    let size =
      if t.npages = 0 then first_page_words else min page_words (2 * Array.length t.page)
    in
    t.page <- Array.make (max size n) 0;
    t.pages.(t.npages) <- t.page;
    t.npages <- t.npages + 1;
    t.fill <- 0
  end

let push t x =
  Array.unsafe_set t.page t.fill x;
  t.fill <- t.fill + 1

let push_lits t lits =
  let nl = Array.length lits in
  Vec.blit_ints lits 0 t.page t.fill nl;
  t.fill <- t.fill + nl

let add_input t ~tag lits =
  if tag < 0 then invalid_arg "Proof_log.add_input: negative tag";
  t.ninputs <- t.ninputs + 1;
  if not t.record then next_id t
  else begin
    let nl = Array.length lits in
    reserve_data t (2 + nl);
    let id = reserve_step t in
    push t (-(tag + 1));
    push t nl;
    push_lits t lits;
    t.words <- t.words + 2 + nl;
    id
  end

let add_derived t ~lits ~first ~chain =
  if not t.record then next_id t
  else begin
    let nl = Array.length lits in
    let nw = Vec.size chain in
    reserve_data t (3 + nl + nw);
    let id = reserve_step t in
    push t first;
    push t nl;
    push_lits t lits;
    push t (nw / 2);
    for i = 0 to nw - 1 do
      Array.unsafe_set t.page (t.fill + i) (Vec.unsafe_get chain i)
    done;
    t.fill <- t.fill + nw;
    t.words <- t.words + 3 + nl + nw;
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
  let a = t.index.(id) in
  let h = t.pages.(Proof.page_of a).(Proof.offset_of a) in
  if h < 0 then -h - 1 else -1

(* The view gets its own copy of the page table: new pages are added. *)
let view t ~empty ~nvars =
  require_record t "view";
  Proof.of_packed ~index:t.index ~pages:(Array.sub t.pages 0 t.npages) ~nsteps:t.nsteps
    ~deletions:t.dels ~ndeletions:t.ndels ~empty ~nvars
