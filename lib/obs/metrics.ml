(** Metrics registry: named counters, gauges and histograms with JSON
    and CSV exporters.

    A registry is the export-side companion of the raw mutable stats
    records kept on the hot paths ({!Vekt_vm.Interp.counters},
    {!Vekt_runtime.Stats}): those stay plain records for speed, and are
    snapshotted into a registry by name when a machine-readable dump is
    requested ([vektc run --metrics], bench artifacts).  Registration
    order is preserved so exports are stable and diffable.

    Histograms are integer-binned (bin value → occurrence count), which
    matches every distribution the paper reports: warp sizes, restores
    per entry, specialization widths. *)

type hist = {
  mutable count : int;
  mutable sum : float;
  bins : (int, int) Hashtbl.t;
}

type value = Counter of int ref | Gauge of float ref | Hist of hist

type t = {
  tbl : (string, value) Hashtbl.t;
  mutable rev_order : string list;
}

let create () = { tbl = Hashtbl.create 32; rev_order = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let find_or_register t name make =
  match Hashtbl.find_opt t.tbl name with
  | Some v -> v
  | None ->
      let v = make () in
      Hashtbl.replace t.tbl name v;
      t.rev_order <- name :: t.rev_order;
      v

let wrong_kind name v want =
  invalid_arg (Fmt.str "Metrics: %s is a %s, not a %s" name (kind_name v) want)

(** Get or create the counter [name]. *)
let counter t name : int ref =
  match find_or_register t name (fun () -> Counter (ref 0)) with
  | Counter r -> r
  | v -> wrong_kind name v "counter"

(** Get or create the gauge [name]. *)
let gauge t name : float ref =
  match find_or_register t name (fun () -> Gauge (ref 0.0)) with
  | Gauge r -> r
  | v -> wrong_kind name v "gauge"

(** Get or create the histogram [name]. *)
let histogram t name : hist =
  match
    find_or_register t name (fun () ->
        Hist { count = 0; sum = 0.0; bins = Hashtbl.create 8 })
  with
  | Hist h -> h
  | v -> wrong_kind name v "histogram"

let incr ?(by = 1) (c : int ref) = c := !c + by
let set (g : float ref) v = g := v

(** Record [n] observations of [bin]. *)
let observe_n (h : hist) ~bin n =
  h.count <- h.count + n;
  h.sum <- h.sum +. (float_of_int bin *. float_of_int n);
  Hashtbl.replace h.bins bin
    (Option.value (Hashtbl.find_opt h.bins bin) ~default:0 + n)

let observe h bin = observe_n h ~bin 1

let hist_mean h = if h.count = 0 then 0.0 else h.sum /. float_of_int h.count

let hist_bins h =
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) h.bins []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Exact quantile over the integer-binned histogram: the smallest bin
    value [v] such that at least [ceil (q * count)] observations are
    [<= v].  Exact because bins hold every observation (no bucketing
    error); [0] on an empty histogram.  [q] is clamped to [0;1]. *)
let quantile (h : hist) q =
  if h.count = 0 then 0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let need =
      max 1 (min h.count (int_of_float (Float.ceil (q *. float_of_int h.count))))
    in
    let rec go acc = function
      | [] -> 0 (* unreachable: cumulative count reaches h.count *)
      | (bin, c) :: rest ->
          let acc = acc + c in
          if acc >= need then bin else go acc rest
    in
    go 0 (hist_bins h)
  end

(** The standard latency percentiles (p50, p95, p99). *)
let percentiles h = (quantile h 0.50, quantile h 0.95, quantile h 0.99)

(** Registered names in registration order. *)
let names t = List.rev t.rev_order

let find t name = Hashtbl.find_opt t.tbl name

(** Read the counter [name] without creating it: [0] when absent.
    Scrape paths (the daemon's health report, tests asserting on
    tallies) use this so probing never mutates the registry it probes.
    Raises [Invalid_argument] if [name] exists but is not a counter. *)
let counter_value t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> !c
  | Some v -> wrong_kind name v "counter"
  | None -> 0

(** Merge [src] into [into], optionally namespacing every metric under
    [prefix] (e.g. ["tenant.alice."]).  Counters add, gauges take the
    source value (last merge wins), histograms merge bin-wise — so
    scraping a shared engine can fold several per-session registries
    into one view without losing attribution.  Kind mismatches between
    [src] and an existing metric raise [Invalid_argument], same as the
    typed accessors. *)
let merge_into ~into ?(prefix = "") (src : t) =
  List.iter
    (fun name ->
      let dst_name = prefix ^ name in
      match Hashtbl.find src.tbl name with
      | Counter c -> incr ~by:!c (counter into dst_name)
      | Gauge g -> set (gauge into dst_name) !g
      | Hist h ->
          let dh = histogram into dst_name in
          List.iter (fun (bin, n) -> observe_n dh ~bin n) (hist_bins h))
    (names src)

(* ---- exporters ---- *)

module J = Jsonx

(** [{"name": {"type": ..., ...}, ...}] in registration order. *)
let to_json t : J.t =
  J.Obj
    (List.map
       (fun name ->
         let fields =
           match Hashtbl.find t.tbl name with
           | Counter c -> [ ("type", J.Str "counter"); ("value", J.Int !c) ]
           | Gauge g -> [ ("type", J.Str "gauge"); ("value", J.Float !g) ]
           | Hist h ->
               let p50, p95, p99 = percentiles h in
               [
                 ("type", J.Str "histogram");
                 ("count", J.Int h.count);
                 ("sum", J.Float h.sum);
                 ("p50", J.Int p50);
                 ("p95", J.Int p95);
                 ("p99", J.Int p99);
                 ( "bins",
                   J.Obj
                     (List.map
                        (fun (bin, c) -> (string_of_int bin, J.Int c))
                        (hist_bins h)) );
               ]
         in
         (name, J.Obj fields))
       (names t))

(** The inverse of {!to_json}.  Count, sum and percentiles are derived
    from the bins, so only counters, gauges and histogram bins are
    read back; entries of an unknown shape are skipped. *)
let of_json (j : J.t) : t =
  let reg = create () in
  (match j with
  | J.Obj kvs ->
      List.iter
        (fun (name, v) ->
          match J.str_mem "type" v with
          | Some "counter" ->
              Option.iter (fun n -> incr ~by:n (counter reg name)) (J.int_mem "value" v)
          | Some "gauge" -> (
              match J.mem "value" v with
              | Some (J.Float x) -> set (gauge reg name) x
              | Some (J.Int n) -> set (gauge reg name) (float_of_int n)
              | _ -> ())
          | Some "histogram" ->
              let h = histogram reg name in
              Option.iter
                (List.iter (fun (bk, bv) ->
                     match (int_of_string_opt bk, bv) with
                     | Some bin, J.Int n -> observe_n h ~bin n
                     | _ -> ()))
                (J.obj_mem "bins" v)
          | _ -> ())
        kvs
  | _ -> ());
  reg

(** [name,kind,key,value] rows; histograms expand to one [bin:N] row per
    bin plus [count] and [sum] rows. *)
let to_csv t =
  let num x = J.to_string (J.Float x) in
  let b = Buffer.create 1024 in
  Buffer.add_string b "name,kind,key,value\n";
  let esc s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  List.iter
    (fun key ->
      let name = esc key in
      match Hashtbl.find t.tbl key with
      | Counter c -> Buffer.add_string b (Printf.sprintf "%s,counter,,%d\n" name !c)
      | Gauge g ->
          Buffer.add_string b (Printf.sprintf "%s,gauge,,%s\n" name (num !g))
      | Hist h ->
          let p50, p95, p99 = percentiles h in
          Buffer.add_string b (Printf.sprintf "%s,histogram,count,%d\n" name h.count);
          Buffer.add_string b (Printf.sprintf "%s,histogram,sum,%s\n" name (num h.sum));
          Buffer.add_string b (Printf.sprintf "%s,histogram,p50,%d\n" name p50);
          Buffer.add_string b (Printf.sprintf "%s,histogram,p95,%d\n" name p95);
          Buffer.add_string b (Printf.sprintf "%s,histogram,p99,%d\n" name p99);
          List.iter
            (fun (bin, c) ->
              Buffer.add_string b (Printf.sprintf "%s,histogram,bin:%d,%d\n" name bin c))
            (hist_bins h))
    (names t);
  Buffer.contents b

(** Human-readable dump (the [--metrics -] form). *)
let pp ppf t =
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | Counter c -> Fmt.pf ppf "%-32s %d@." name !c
      | Gauge g -> Fmt.pf ppf "%-32s %g@." name !g
      | Hist h ->
          let p50, p95, p99 = percentiles h in
          Fmt.pf ppf "%-32s count=%d mean=%.2f p50=%d p95=%d p99=%d %a@." name
            h.count (hist_mean h) p50 p95 p99
            Fmt.(list ~sep:sp (pair ~sep:(any ":") int int))
            (hist_bins h))
    (names t)
