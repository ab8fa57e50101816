type counter = { mutable c : int }
type gauge = { mutable g : float }

let nbuckets = 64

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable min_v : float; (* +infinity when empty *)
  mutable max_v : float;
  buckets : int array; (* length [nbuckets] *)
}

type metric = C of counter | G of gauge | H of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  mutable order : string list; (* reverse registration order *)
}

let create () = { tbl = Hashtbl.create 32; order = [] }

let register r name mk =
  match Hashtbl.find_opt r.tbl name with
  | Some m -> m
  | None ->
    let m = mk () in
    Hashtbl.add r.tbl name m;
    r.order <- name :: r.order;
    m

let counter r name =
  match register r name (fun () -> C { c = 0 }) with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")

let gauge r name =
  match register r name (fun () -> G { g = 0.0 }) with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")

let histogram r name =
  match
    register r name (fun () ->
        H
          {
            count = 0;
            sum = 0.0;
            min_v = Float.infinity;
            max_v = 0.0;
            buckets = Array.make nbuckets 0;
          })
  with
  | H h -> h
  | C _ | G _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c
let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v
let gauge_value g = g.g

let bucket_upper i = Float.ldexp 1.0 i

(* Bucket 0: v <= 1; bucket i: 2^(i-1) < v <= 2^i.  The log2 estimate is
   corrected by neighbourhood checks so floating-point rounding cannot
   misplace exact powers of two. *)
let bucket_of v =
  if Float.is_nan v || v <= 1.0 then 0
  else begin
    let i = ref (int_of_float (Float.ceil (Float.log2 v))) in
    if !i < 1 then i := 1;
    while !i > 1 && bucket_upper (!i - 1) >= v do
      i := !i - 1
    done;
    while !i < nbuckets - 1 && bucket_upper !i < v do
      i := !i + 1
    done;
    !i
  end

let observe h v =
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_count h = h.count
let hist_sum h = h.sum
let hist_min h = if h.count = 0 then 0.0 else h.min_v
let hist_max h = h.max_v

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

(* Quantile estimate from the log-bucketed counts: find the bucket the
   rank falls into and interpolate linearly inside it.  The bucket edges
   are tightened by the exact min/max, so one-bucket histograms are
   exact and the tails never over-shoot. *)
let hist_quantile h q =
  if h.count = 0 then 0.0
  else if Float.is_nan q then invalid_arg "Metrics.hist_quantile: nan"
    (* The extremes are tracked exactly — pin them rather than trust the
       interpolation's clamping to land there. *)
  else if q <= 0.0 then hist_min h
  else if q >= 1.0 then h.max_v
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int h.count in
    let rec find i cum =
      if i >= nbuckets then nbuckets - 1
      else
        let cum' = cum + h.buckets.(i) in
        if float_of_int cum' >= rank && h.buckets.(i) > 0 then i
        else if cum' >= h.count then i
        else find (i + 1) cum'
    in
    let b = find 0 0 in
    let below = ref 0 in
    for i = 0 to b - 1 do
      below := !below + h.buckets.(i)
    done;
    let n = h.buckets.(b) in
    if n = 0 then hist_min h
    else begin
      let lo = if b = 0 then 0.0 else bucket_upper (b - 1) in
      let hi = bucket_upper b in
      (* Clamp the edges by the observed extremes. *)
      let lo = Float.max lo (Float.min (hist_min h) hi) in
      let hi = Float.min hi (Float.max h.max_v lo) in
      let frac = (rank -. float_of_int !below) /. float_of_int n in
      let frac = Float.max 0.0 (Float.min 1.0 frac) in
      lo +. (frac *. (hi -. lo))
    end
  end

let hist_buckets h =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) > 0 then acc := (bucket_upper i, h.buckets.(i)) :: !acc
  done;
  !acc

let names r = List.rev r.order

let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find src.tbl name with
      | C c -> add (counter into name) c.c
      | G g -> set_max (gauge into name) g.g
      | H h ->
        let dst = histogram into name in
        dst.count <- dst.count + h.count;
        dst.sum <- dst.sum +. h.sum;
        if h.min_v < dst.min_v then dst.min_v <- h.min_v;
        if h.max_v > dst.max_v then dst.max_v <- h.max_v;
        Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) h.buckets)
    (names src)

let float_json = Json.float_
let escape = Json.escape

let to_json r =
  let b = Buffer.create 512 in
  Buffer.add_string b "{";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  \"";
      Buffer.add_string b (escape name);
      Buffer.add_string b "\": ";
      match Hashtbl.find r.tbl name with
      | C c -> Buffer.add_string b (string_of_int c.c)
      | G g -> Buffer.add_string b (float_json g.g)
      | H h ->
        Buffer.add_string b
          (Printf.sprintf "{\"count\": %d, \"sum\": %s, \"max\": %s, \"buckets\": ["
             h.count (float_json h.sum) (float_json h.max_v));
        List.iteri
          (fun j (le, n) ->
            if j > 0 then Buffer.add_string b ", ";
            Buffer.add_string b (Printf.sprintf "{\"le\": %s, \"n\": %d}" (float_json le) n))
          (hist_buckets h);
        Buffer.add_string b "]}")
    (names r);
  Buffer.add_string b "\n}";
  Buffer.contents b

type reading =
  | Number of float
  | Histogram of { count : int; sum : float; max : float; buckets : (float * int) list }

let of_json text =
  let num name j = match Json.field name j with Some (Json.Num f) -> f | _ -> 0.0 in
  let reading = function
    | Json.Num f -> Some (Number f)
    | Json.Obj _ as h ->
      let buckets =
        match Json.field "buckets" h with
        | Some (Json.Arr bs) ->
          List.filter_map
            (fun b ->
              match (Json.field "le" b, Json.field "n" b) with
              | Some (Json.Num le), Some (Json.Num n) -> Some (le, int_of_float n)
              | _ -> None)
            bs
        | _ -> []
      in
      Some
        (Histogram
           { count = int_of_float (num "count" h); sum = num "sum" h; max = num "max" h; buckets })
    | _ -> None
  in
  match Json.parse text with
  | exception Json.Parse_error msg -> failwith msg
  | Json.Obj kvs -> List.filter_map (fun (k, v) -> Option.map (fun r -> (k, r)) (reading v)) kvs
  | _ -> failwith "not an object"

let pp fmt r =
  List.iter
    (fun name ->
      match Hashtbl.find r.tbl name with
      | C c -> Format.fprintf fmt "%-28s %d@." name c.c
      | G g -> Format.fprintf fmt "%-28s %g@." name g.g
      | H h ->
        let mean = if h.count > 0 then h.sum /. float_of_int h.count else 0.0 in
        Format.fprintf fmt "%-28s count=%d mean=%.1f max=%g@." name h.count mean h.max_v;
        List.iter
          (fun (le, n) -> Format.fprintf fmt "%-28s   le=%g: %d@." "" le n)
          (hist_buckets h))
    (names r)
